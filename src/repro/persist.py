"""Synopsis persistence.

A deployed estimator builds its summaries once (over the warehouse's XML)
and ships them to query optimizers; the document itself is not needed at
estimation time.  This module serializes everything
:class:`~repro.core.system.EstimationSystem` needs — the encoding table,
the per-tag p-histograms and the per-tag/per-region o-histograms — to a
JSON-compatible dict and back.

Path ids are stored as hex strings (they are wide integers), bucket
structures verbatim.  ``loads(dumps(system))`` estimates identically to
the original system (pinned by tests).

Integrity: every snapshot written by :func:`dumps`/:func:`save` embeds a
CRC32 checksum of its canonical payload (``"checksum": "crc32:..."``),
and :func:`save` writes atomically (same-directory temp file +
``os.replace``), so a reader — in particular the hot-reloading
:class:`~repro.service.registry.SynopsisRegistry` — only ever sees a
complete old snapshot or a complete new one.  Loading verifies the
checksum when present and raises :class:`SnapshotCorruptError` on
mismatch; checksum-less snapshots (pre-1.2 writers) still load.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.reliability import integrity

from repro.core.system import EstimationSystem
from repro.errors import PersistError as _BasePersistError
from repro.histograms.ohistogram import OBucket, OHistogram, OHistogramSet
from repro.histograms.phistogram import PBucket, PHistogram, PHistogramSet
from repro.pathenc.encoding import EncodingTable
from repro.pathenc.labeler import LabeledDocument
from repro.stats.path_order import PathOrderTable, TagOrderGrid
from repro.stats.pathid_freq import PathIdFrequencyTable

FORMAT_VERSION = 1

#: Shard-payload format (see partial_to_dict); versioned independently of
#: the synopsis format so the two can evolve separately.
PARTIAL_FORMAT_VERSION = 1

#: Embedded incremental-state format (see incremental_to_dict).  A
#: snapshot may carry an ``"incremental"`` section holding the merged
#: body tables + top-level record sequence; readers that understand it
#: load a delta-capable system, older readers ignore the extra key and
#: load the plain histogram synopsis — both estimate identically.
INCREMENTAL_FORMAT_VERSION = 1


class PersistError(_BasePersistError):
    """Base error for synopsis (de)serialization failures.

    Raised instead of leaking ``KeyError``/``TypeError``/``JSONDecodeError``
    from the payload internals, so callers (the CLI, the estimation
    service) can report one clear failure mode.  Part of the
    :class:`repro.errors.ReproError` hierarchy (``kind == "persist"``).
    """


class SynopsisLoadError(PersistError):
    """Raised when a persisted synopsis is malformed or incompatible."""


class SnapshotCorruptError(SynopsisLoadError):
    """The snapshot's embedded checksum does not match its payload.

    Distinguished from plain :class:`SynopsisLoadError` so operators can
    tell "bytes rotted / write was torn" (restore from a good copy or
    rebuild — see docs/OPERATIONS.md) apart from "format mismatch".
    """


def system_to_dict(system: EstimationSystem) -> Dict[str, Any]:
    """Serialize a (histogram-backed) estimation system.

    A system materialized by an
    :class:`~repro.cluster.delta.IncrementalSynopsis` also embeds its
    maintainer's body tables under ``"incremental"``, so the snapshot
    stays delta-capable when loaded back (older readers skip the key).
    """
    path_provider = system.path_provider
    order_provider = system.order_provider
    if not isinstance(path_provider, PHistogramSet) or not isinstance(
        order_provider, OHistogramSet
    ):
        raise SynopsisLoadError(
            "only histogram-backed systems can be persisted "
            "(build with use_histograms=True)"
        )
    payload = _system_body_to_dict(system, path_provider, order_provider)
    maintainer = getattr(system, "incremental", None)
    if maintainer is not None:
        payload["incremental"] = incremental_to_dict(maintainer)
    return payload


def _system_body_to_dict(
    system: EstimationSystem,
    path_provider: PHistogramSet,
    order_provider: OHistogramSet,
) -> Dict[str, Any]:
    return {
        "format_version": FORMAT_VERSION,
        "paths": system.encoding_table.all_paths(),
        "p_variance": path_provider.variance_threshold,
        "o_variance": order_provider.variance_threshold,
        "p_histograms": {
            tag: _phistogram_to_dict(path_provider.histogram(tag))
            for tag in path_provider.tags()
        },
        "o_histograms": [
            _ohistogram_to_dict(order_provider.histogram(tag, region))
            for tag, region in _ohistogram_keys(order_provider)
        ],
    }


def system_from_dict(payload: Dict[str, Any]) -> EstimationSystem:
    """Rebuild an estimation-capable system from a persisted synopsis.

    The returned system estimates queries but has no document: the
    exact-statistics tables are empty shells and no binary tree is
    attached (both are construction-time artifacts).
    """
    if not isinstance(payload, dict):
        raise SynopsisLoadError(
            "synopsis payload must be a JSON object, got %s" % type(payload).__name__
        )
    payload = _verify_checksum(payload)
    version = payload.get("format_version")
    if version is None:
        raise SynopsisLoadError("synopsis payload has no format_version field")
    if version != FORMAT_VERSION:
        raise SynopsisLoadError("unsupported synopsis format %r" % version)
    try:
        table = EncodingTable(payload["paths"])
        phistograms = PHistogramSet(
            {
                tag: _phistogram_from_dict(tag, data)
                for tag, data in payload["p_histograms"].items()
            },
            float(payload["p_variance"]),
        )
        ohistograms = OHistogramSet(
            {
                (data["tag"], data["region"]): _ohistogram_from_dict(data)
                for data in payload["o_histograms"]
            },
            float(payload["o_variance"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise SynopsisLoadError("malformed synopsis: %s" % error)
    labeled = _labeled_shell(table)
    incremental = payload.get("incremental")
    if incremental is not None:
        try:
            maintainer = incremental_from_dict(incremental)
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise SynopsisLoadError("malformed incremental state: %s" % error)
        # The maintainer materializes from the same exact tables the
        # histograms were bucketed from, at the same variances — the
        # system it serves is identical to one built from the payload's
        # histogram sections, plus it can apply deltas.
        return maintainer.system
    return EstimationSystem(
        labeled,
        PathIdFrequencyTable({}),
        PathOrderTable({}),
        phistograms,
        ohistograms,
        binary_tree=None,
    )


def partial_to_dict(partial: "PartialSynopsis") -> Dict[str, Any]:
    """Serialize one shard's provisional partial synopsis.

    This is the wire format for distributed builds: map workers (possibly
    on other machines) stream their shards, ship these payloads, and a
    single reducer feeds the decoded partials — in document order — to
    :func:`repro.build.merge.merge_partials`.
    """
    return {
        "partial_format_version": PARTIAL_FORMAT_VERSION,
        "paths": list(partial.paths),
        "freq": {
            tag: {"%x" % pid: count for pid, count in per_tag.items()}
            for tag, per_tag in partial.freq.items()
        },
        "grids": {
            tag: [
                ["%x" % pid, other_tag, count, before]
                for (pid, other_tag, before), count in grid.cells()
            ]
            for tag, grid in partial.grids.items()
        },
        "top": (
            None
            if partial.top is None
            else [[record.tag, "%x" % record.pid] for record in partial.top]
        ),
        "element_count": partial.element_count,
    }


def partial_from_dict(payload: Dict[str, Any]) -> "PartialSynopsis":
    """Decode a shard payload produced by :func:`partial_to_dict`."""
    from repro.build.stream import PartialSynopsis, SiblingRecord

    if not isinstance(payload, dict):
        raise SynopsisLoadError(
            "partial payload must be a JSON object, got %s" % type(payload).__name__
        )
    version = payload.get("partial_format_version")
    if version != PARTIAL_FORMAT_VERSION:
        raise SynopsisLoadError("unsupported partial format %r" % version)
    try:
        paths = [str(path) for path in payload["paths"]]
        freq = {
            tag: {int(pid, 16): int(count) for pid, count in per_tag.items()}
            for tag, per_tag in payload["freq"].items()
        }
        grids: Dict[str, TagOrderGrid] = {}
        for tag, cells in payload["grids"].items():
            grid = TagOrderGrid(tag)
            for pid, other_tag, count, before in cells:
                grid.add_count(int(pid, 16), other_tag, int(count), bool(before))
            grids[tag] = grid
        top = payload["top"]
        if top is not None:
            top = [SiblingRecord(tag, int(pid, 16)) for tag, pid in top]
        element_count = int(payload["element_count"])
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise SynopsisLoadError("malformed partial: %s" % error)
    return PartialSynopsis(paths, freq, grids, top, element_count)


def incremental_to_dict(maintainer) -> Dict[str, Any]:
    """Serialize an :class:`IncrementalSynopsis`' maintained body state.

    The same hex-pid conventions as :func:`partial_to_dict`, but in the
    *final* bit layout with the top-level record sequence and the build
    knobs (variances, drift threshold) the maintainer needs to resume.
    """
    body = maintainer._body
    return {
        "incremental_format_version": INCREMENTAL_FORMAT_VERSION,
        "root_tag": maintainer.root_tag,
        "name": maintainer.name,
        "paths": list(body.paths),
        "freq": {
            tag: {"%x" % pid: count for pid, count in per_tag}
            for tag, per_tag in body.pathid_table.iter_items()
        },
        "grids": {
            tag: [
                ["%x" % pid, other_tag, count, before]
                for (pid, other_tag, before), count in grid.cells()
            ]
            for tag in body.order_table.tags()
            for grid in [body.order_table.grid(tag)]
        },
        "top": [[record.tag, "%x" % record.pid] for record in body.top],
        "element_count": body.element_count,
        "p_variance": maintainer.p_variance,
        "o_variance": maintainer.o_variance,
        "drift_threshold": maintainer.drift_threshold,
    }


def incremental_from_dict(data: Dict[str, Any]):
    """Rebuild a delta-capable maintainer (and its served system).

    The maintainer re-materializes the system from the exact body
    tables at the stored variances — identical to the snapshot's own
    histogram sections, since both derive deterministically from the
    same tables.  No binary tree is built (matching what plain snapshot
    loads serve).
    """
    from repro.build.merge import BodyTables
    from repro.build.stream import SiblingRecord
    from repro.cluster.delta import IncrementalSynopsis

    version = data.get("incremental_format_version")
    if version != INCREMENTAL_FORMAT_VERSION:
        raise SynopsisLoadError("unsupported incremental format %r" % version)
    try:
        if not isinstance(data["paths"], list):
            raise TypeError("paths must be a list")
        paths = [str(path) for path in data["paths"]]
        freq = PathIdFrequencyTable(
            {
                tag: {int(pid, 16): int(count) for pid, count in per_tag.items()}
                for tag, per_tag in data["freq"].items()
            }
        )
        grids: Dict[str, TagOrderGrid] = {}
        for tag, cells in data["grids"].items():
            grid = TagOrderGrid(tag)
            for pid, other_tag, count, before in cells:
                grid.add_count(int(pid, 16), other_tag, int(count), bool(before))
            grids[tag] = grid
        body = BodyTables(
            paths,
            freq,
            PathOrderTable(grids),
            [SiblingRecord(tag, int(pid, 16)) for tag, pid in data["top"]],
            int(data["element_count"]),
        )
        return IncrementalSynopsis(
            body,
            str(data["root_tag"]),
            p_variance=float(data["p_variance"]),
            o_variance=float(data["o_variance"]),
            build_binary_tree=False,
            drift_threshold=float(data.get("drift_threshold", 0.0)),
            name=str(data.get("name", "")),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise SynopsisLoadError("malformed incremental state: %s" % error)


def _verify_checksum(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Strip and verify an embedded checksum; corrupt payloads raise.

    Snapshots written before checksums existed carry no ``checksum`` key
    and are accepted unverified.
    """
    expected = payload.get("checksum")
    if expected is None:
        return payload
    body = {key: value for key, value in payload.items() if key != "checksum"}
    if not isinstance(expected, str) or not integrity.verify_payload(body, expected):
        raise SnapshotCorruptError(
            "synopsis checksum mismatch (expected %r, payload hashes to %r) — "
            "the snapshot is truncated or corrupt" % (expected, integrity.checksum_payload(body))
        )
    return body


def dumps(system: EstimationSystem, indent: Optional[int] = None) -> str:
    payload = system_to_dict(system)
    payload["checksum"] = integrity.checksum_payload(payload)
    return json.dumps(payload, indent=indent, sort_keys=True)


def loads(text: Union[str, bytes]) -> EstimationSystem:
    """Load a synopsis from its JSON text, or from the file's raw UTF-8
    bytes (bytes that are not UTF-8 are a malformed snapshot)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as error:
            raise SynopsisLoadError("synopsis is not valid UTF-8: %s" % error)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise SynopsisLoadError("synopsis is not valid JSON: %s" % error)
    return system_from_dict(payload)


def save(system: EstimationSystem, path: str) -> None:
    """Persist atomically: a crash (or a concurrent reader) never sees a
    half-written snapshot at ``path``."""
    integrity.atomic_write_text(path, dumps(system))


def load(path: str) -> EstimationSystem:
    with open(path, "rb") as handle:
        return loads(handle.read())


# ----------------------------------------------------------------------
# Pieces
# ----------------------------------------------------------------------


def _phistogram_to_dict(histogram: PHistogram) -> Dict[str, Any]:
    return {
        "buckets": [
            {"pids": ["%x" % pid for pid in bucket.pathids], "avg": bucket.avg_frequency}
            for bucket in histogram.buckets
        ]
    }


def _phistogram_from_dict(tag: str, data: Dict[str, Any]) -> PHistogram:
    buckets = [
        PBucket(tuple(int(pid, 16) for pid in bucket["pids"]), float(bucket["avg"]))
        for bucket in data["buckets"]
    ]
    return PHistogram(tag, buckets)


def _ohistogram_keys(provider: OHistogramSet) -> List[Tuple[str, str]]:
    return provider.keys()


def _ohistogram_to_dict(histogram: OHistogram) -> Dict[str, Any]:
    return {
        "tag": histogram.tag,
        "region": histogram.region,
        "buckets": [
            [b.x_start, b.y_start, b.x_end, b.y_end, b.avg_frequency]
            for b in histogram.buckets
        ],
        "cols": {"%x" % pid: col for pid, col in histogram.column_map().items()},
        "rows": histogram.row_map(),
    }


def _ohistogram_from_dict(data: Dict[str, Any]) -> OHistogram:
    buckets = [
        OBucket(int(b[0]), int(b[1]), int(b[2]), int(b[3]), float(b[4]))
        for b in data["buckets"]
    ]
    return OHistogram(
        data["tag"],
        data["region"],
        buckets,
        {int(pid, 16): int(col) for pid, col in data["cols"].items()},
        {tag: int(row) for tag, row in data["rows"].items()},
    )


def _labeled_shell(table: EncodingTable) -> LabeledDocument:
    """A document-free LabeledDocument carrying just the encoding table."""
    return LabeledDocument.from_summary(table, [])
