"""The ``repro`` package surface: ``__all__``, error hierarchy."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro.errors import (
    BuildError,
    ParseError,
    PersistError,
    QuerySyntaxError,
    ReproError,
    error_kind,
)


class TestAll:
    def test_all_is_the_documented_surface(self):
        assert set(repro.__all__) == {
            "EstimateResult",
            "EstimationSystem",
            "SynopsisBuilder",
            "build_synopsis",
            "parse_xml",
            "parse_query",
            "ReproError",
            "ParseError",
            "QuerySyntaxError",
            "PersistError",
            "BuildError",
            "ObservabilityError",
            "EstimateOptions",
            "ExecuteOptions",
            "ExplainOptions",
            "Plan",
            "ExecutionResult",
            "connect",
            "__version__",
        }

    def test_all_names_resolve_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in repro.__all__:
                assert getattr(repro, name) is not None

    def test_star_import_matches_all(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) - {"__version__"} <= set(namespace)


class TestErrorHierarchy:
    def test_kinds(self):
        assert ReproError.kind == "error"
        assert ParseError.kind == "parse"
        assert QuerySyntaxError.kind == "query_syntax"
        assert PersistError.kind == "persist"
        assert BuildError.kind == "build"

    def test_subclass_relationships(self):
        for cls in (ParseError, QuerySyntaxError, PersistError, BuildError):
            assert issubclass(cls, ReproError)
            assert issubclass(cls, ValueError)

    def test_concrete_errors_join_the_hierarchy(self):
        from repro.persist import SynopsisLoadError
        from repro.xmltree.parser import XmlParseError
        from repro.xpath.parser import XPathSyntaxError

        assert issubclass(XmlParseError, ParseError)
        assert issubclass(XPathSyntaxError, QuerySyntaxError)
        assert issubclass(SynopsisLoadError, PersistError)

    def test_error_kind_helper(self):
        assert error_kind(BuildError("x")) == "build"
        assert error_kind(ValueError("x")) == "internal"

    def test_parse_and_query_errors_raised_through_public_api(self):
        with pytest.raises(ParseError):
            repro.parse_xml("<a><b></a>")
        with pytest.raises(QuerySyntaxError):
            repro.parse_query("//[[")
