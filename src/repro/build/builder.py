"""The synopsis construction facade: streaming, sharded, or from a tree.

:class:`SynopsisBuilder` owns the construction-time knobs (variance
thresholds, histogram/binary-tree switches, ``workers``, the shard byte
cap) and builds :class:`~repro.core.system.EstimationSystem` instances
from any source shape:

* :meth:`from_text` — one streaming scan (``workers=1``) or a chunked
  ``multiprocessing`` fan-out (``workers>1``) over the XML text; the
  document tree is never materialized either way;
* :meth:`from_file` — :meth:`from_text` over a file's contents;
* :meth:`from_shards` — pre-cut fragment texts (for example produced by
  an upstream pipeline or another machine), reduced with the same merge;
* :meth:`from_document` — the classic in-memory tree pipeline, for
  callers that already hold an :class:`~repro.xmltree.document.XmlDocument`.

:func:`build_synopsis` is the one-call convenience the package exports:
it dispatches on the source's type (XML text / filesystem path /
document) and returns a ready estimation system.

Parallel builds are **bit-identical** to serial and to tree builds: the
chunker cuts contiguous top-level spans, every worker scans its shard in
isolation, and the reducer re-aligns shard-local encodings before merging
(see :mod:`repro.build.merge`).  If a worker pool cannot be spawned (no
``fork``/``spawn`` support in the host environment), the builder degrades
to scanning the shards serially in-process and still merges the same
partials.

Fault recovery
--------------

The parallel fan-out is *supervised*: a shard whose worker crashes, is
killed, or exceeds ``shard_timeout_s`` is resubmitted to a fresh pool, up
to ``worker_retries`` extra rounds; shards that still fail are scanned
in-process (slow but certain), so a flaky pool can delay a build but not
change its result — partials merge by shard index, keeping the output
bit-identical to the serial scan.  A shard whose *content* fails to parse
is different: that failure is deterministic, so it is raised immediately
as :class:`ShardScanError` with the shard index and the byte offset of
the damage — unless ``lenient=True``, in which case the scanner recovers
past malformed regions (:mod:`repro.build.lenient`) and the incidents are
reported in :attr:`SynopsisBuilder.last_recoveries` for in-process scans.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple, Union

from repro.build.chunker import DEFAULT_SHARD_BYTES, split_text
from repro.build.merge import (
    BodyTables,
    SynopsisTables,
    merge_partials,
    merge_shard_bodies,
)
from repro.build.stream import PartialSynopsis, scan_text
from repro.errors import BuildError, ParseError
from repro.obs.trace import NULL_TRACER
from repro.reliability import faults
from repro.xmltree.document import XmlDocument

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports build)
    from repro.core.system import EstimationSystem

SourceType = Union[str, "os.PathLike[str]", XmlDocument]

#: A shard scan that produces nothing for this long is presumed lost
#: (crashed or hung worker) and resubmitted.
DEFAULT_SHARD_TIMEOUT_S = 120.0

#: Extra pool rounds for lost shards before the in-process fallback.
DEFAULT_WORKER_RETRIES = 2

#: (index, shard text, prefix labels, lenient) — the unit of pool work.
_ShardJob = Tuple[int, str, Tuple[str, ...], bool]


class ShardScanError(BuildError):
    """One shard's content failed to scan (deterministically).

    ``shard_index`` is the shard's position in document order;
    ``offset`` is the byte offset of the damage *within that shard's
    text* (None when the underlying failure carried no position).
    """

    def __init__(self, shard_index: int, offset: Optional[int], cause: BaseException):
        where = "" if offset is None else " at shard byte offset %d" % offset
        super().__init__(
            "shard %d failed to scan%s: %s" % (shard_index, where, cause)
        )
        self.shard_index = shard_index
        self.offset = offset

    def __reduce__(self):
        return (_restore_shard_scan_error, (str(self), self.shard_index, self.offset))


def _restore_shard_scan_error(
    message: str, shard_index: int, offset: Optional[int]
) -> "ShardScanError":
    error = ShardScanError.__new__(ShardScanError)
    BuildError.__init__(error, message)
    error.shard_index = shard_index
    error.offset = offset
    return error


def _shutdown_executor(executor) -> None:
    """Abandon a pool without waiting on its (possibly hung) workers."""
    processes = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.is_alive():
            process.terminate()


def _scan_shard(job: _ShardJob) -> PartialSynopsis:
    """Worker entry point: scan one shard text under its prefix labels.

    Module level so it pickles under both ``fork`` and ``spawn`` start
    methods.  The fault point lets the reliability suite crash or stall
    this exact process deterministically.
    """
    index, text, prefix, lenient = job
    faults.worker_fault_point()
    return scan_text(text, prefix, lenient=lenient)


class SynopsisBuilder:
    """Builds estimation systems without materializing document trees.

    Parameters mirror :meth:`EstimationSystem.build`; the additions are

    workers:
        Scan processes.  ``1`` streams the whole text on the calling
        thread; ``N > 1`` chunks the text and fans the shards out over a
        supervised process pool of ``N`` workers.
    shard_bytes:
        Shard-size cap for the chunker (default 4 MiB).  Peak memory of a
        parallel build is roughly ``workers * shard_bytes`` of shard text
        plus the partial tables, independent of document size.
    shard_timeout_s:
        Per pool round, how long to wait for shard results before the
        still-missing shards are presumed lost and resubmitted.
    worker_retries:
        Extra pool rounds for lost shards; once exhausted, survivors are
        scanned in-process.
    lenient:
        Recover past malformed XML instead of raising; incidents land in
        :attr:`last_recoveries` (in-process scans report exact offsets;
        pool workers recover silently).
    """

    def __init__(
        self,
        *,
        p_variance: float = 0.0,
        o_variance: float = 0.0,
        use_histograms: bool = True,
        build_binary_tree: bool = True,
        workers: int = 1,
        shard_bytes: int = DEFAULT_SHARD_BYTES,
        shard_timeout_s: float = DEFAULT_SHARD_TIMEOUT_S,
        worker_retries: int = DEFAULT_WORKER_RETRIES,
        lenient: bool = False,
        tracer=NULL_TRACER,
    ):
        if workers < 1:
            raise BuildError("workers must be >= 1, got %r" % (workers,))
        if shard_bytes < 1:
            raise BuildError("shard_bytes must be positive, got %r" % (shard_bytes,))
        if shard_timeout_s <= 0:
            raise BuildError(
                "shard_timeout_s must be positive, got %r" % (shard_timeout_s,)
            )
        if worker_retries < 0:
            raise BuildError(
                "worker_retries must be >= 0, got %r" % (worker_retries,)
            )
        self.p_variance = p_variance
        self.o_variance = o_variance
        self.use_histograms = use_histograms
        self.build_binary_tree = build_binary_tree
        self.workers = workers
        self.shard_bytes = shard_bytes
        self.shard_timeout_s = shard_timeout_s
        self.worker_retries = worker_retries
        self.lenient = lenient
        #: Build-phase tracer; a live :class:`repro.obs.trace.Tracer`
        #: accrues per-shard ``scan`` spans and a ``merge`` span.
        self.tracer = tracer
        #: ``(offset, message)`` recovery incidents from the most recent
        #: lenient in-process scan (offsets are scan-local).
        self.last_recoveries: List[Tuple[int, str]] = []

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def build(self, source: SourceType, name: str = "") -> "EstimationSystem":
        """Dispatch on the source shape: document, XML text, or path."""
        if isinstance(source, XmlDocument):
            return self.from_document(source)
        if isinstance(source, os.PathLike):
            return self.from_file(os.fspath(source), name=name)
        if isinstance(source, str):
            if source.lstrip()[:1] == "<":
                return self.from_text(source, name=name)
            if os.path.exists(source):
                return self.from_file(source, name=name)
            raise BuildError(
                "source string is neither XML text (no leading '<') nor an "
                "existing file: %r" % source[:80]
            )
        raise BuildError(
            "unsupported synopsis source type %s" % type(source).__name__
        )

    def from_text(self, text: str, name: str = "") -> "EstimationSystem":
        """Build from XML text with ``workers`` scan processes."""
        return self._finalize(self.collect_text(text), name=name)

    def from_file(self, path: str, name: str = "") -> "EstimationSystem":
        """Build from an XML file (streamed; the tree is never built).

        The synopsis name defaults to the file's stem.
        """
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if not name:
            name = os.path.splitext(os.path.basename(path))[0]
        return self.from_text(text, name=name)

    def from_shards(
        self, shards: Iterable[str], root_tag: str, name: str = ""
    ) -> "EstimationSystem":
        """Build from pre-cut fragment texts under a shared root tag.

        Each shard is a run of *complete* top-level subtrees of the
        document, and the iterable must yield them in document order —
        the reducer trusts that order for both the encoding table and the
        root sibling group.
        """
        shard_list = list(shards)
        if not shard_list:
            raise BuildError("from_shards needs at least one shard")
        self.last_recoveries = []
        partials = self._scan_all(shard_list, (root_tag,))
        return self._finalize(self._merge_traced(partials, root_tag=root_tag), name=name)

    def from_document(self, document: XmlDocument) -> "EstimationSystem":
        """The classic tree pipeline (document already materialized)."""
        from repro.core.system import EstimationSystem

        return EstimationSystem.build(
            document,
            p_variance=self.p_variance,
            o_variance=self.o_variance,
            use_histograms=self.use_histograms,
            build_binary_tree=self.build_binary_tree,
        )

    # ------------------------------------------------------------------
    # Statistics collection (no system construction)
    # ------------------------------------------------------------------

    def collect_text(self, text: str) -> SynopsisTables:
        """Collect the exact tables from text; streaming or sharded."""
        self.last_recoveries = []
        if self.workers == 1:
            return self._merge_traced([self._scan_local((0, text, (), self.lenient))])
        try:
            root_tag, shards = split_text(text, shard_bytes=self._shard_target(text))
        except ParseError:
            # The chunker needs well-formed top-level structure; damaged
            # input can only be scanned leniently in one pass.
            if not self.lenient:
                raise
            return self._merge_traced([self._scan_local((0, text, (), True))])
        except BuildError:
            # Unshardable shape (e.g. a root with a single huge child):
            # fall back to the single-pass scan.
            return self._merge_traced([self._scan_local((0, text, (), self.lenient))])
        if len(shards) == 1:
            return self._merge_traced([self._scan_local((0, text, (), self.lenient))])
        partials = self._scan_all(shards, (root_tag,))
        return self._merge_traced(partials, root_tag=root_tag)

    def collect_body(self, text: str) -> Tuple[str, BodyTables]:
        """Collect merged body tables plus the root tag from document text.

        The delta-capable collection path: the document is always cut
        into root-prefixed shards (even with ``workers=1``) and reduced
        *without* root reconstitution, so the returned
        :class:`~repro.build.merge.BodyTables` keeps the top-level record
        sequence that incremental maintenance appends to.  Reconstituting
        the result (:func:`repro.build.merge.reconstitute`) yields tables
        bit-identical to :meth:`collect_text` on the same input.

        Raises :class:`BuildError` for documents the chunker cannot cut
        (a root with no child elements) — such documents cannot take
        appended top-level subtrees either.
        """
        self.last_recoveries = []
        root_tag, shards = split_text(text, shard_bytes=self._shard_target(text))
        partials = self._scan_all(shards, (root_tag,))
        with self.tracer.span("merge") as span:
            span.incr("partials", len(partials))
            return root_tag, merge_shard_bodies(partials)

    def _merge_traced(self, partials, root_tag=None) -> SynopsisTables:
        with self.tracer.span("merge") as span:
            span.incr("partials", len(partials))
            if root_tag is None:
                return merge_partials(partials)
            return merge_partials(partials, root_tag=root_tag)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _shard_target(self, text: str) -> int:
        """Shard size: honour the cap, but aim for ~2 shards per worker
        so a skewed document still keeps every worker busy."""
        balanced = max(1, len(text) // (self.workers * 2))
        return min(self.shard_bytes, balanced) if self.workers > 1 else self.shard_bytes

    def _scan_all(
        self, shards: Sequence[str], prefix: Tuple[str, ...]
    ) -> List[PartialSynopsis]:
        jobs: List[_ShardJob] = [
            (index, shard, prefix, self.lenient) for index, shard in enumerate(shards)
        ]
        results: List[Optional[PartialSynopsis]] = [None] * len(jobs)
        pending = jobs
        if self.workers > 1 and len(jobs) > 1:
            pending = self._scan_supervised(jobs, results)
        # Whatever the pool could not deliver — every job when no pool
        # could start, the unlucky shards when retries ran dry — is
        # scanned here, in-process.  Slow, but the merge cannot tell.
        for job in pending:
            results[job[0]] = self._scan_shard_guarded(job)
        return [partial for partial in results if partial is not None]

    def _scan_supervised(
        self, jobs: List[_ShardJob], results: List[Optional[PartialSynopsis]]
    ) -> List[_ShardJob]:
        """Pool rounds with retry; returns the jobs still unscanned."""
        pending = jobs
        for _ in range(self.worker_retries + 1):
            if not pending:
                break
            try:
                pending = self._pool_round(pending, results)
            except (ImportError, OSError):
                # Hosts without process support (restricted sandboxes)
                # still get the sharded-and-merged result, just serially.
                break
        return pending

    def _pool_round(
        self, jobs: List[_ShardJob], results: List[Optional[PartialSynopsis]]
    ) -> List[_ShardJob]:
        """Submit ``jobs`` to a fresh pool; harvest within the round's
        time budget.  Content failures (a shard that cannot parse) raise
        immediately — they are deterministic and retrying cannot help.
        Lost workers (crash, kill, hang) just leave their jobs in the
        returned retry list."""
        import concurrent.futures

        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.workers, len(jobs))
        )
        failed: List[_ShardJob] = []
        try:
            futures = {}
            try:
                for job in jobs:
                    futures[job[0]] = executor.submit(_scan_shard, job)
            except concurrent.futures.BrokenExecutor:
                # A worker death can land while jobs are still being
                # submitted; the dead pool then refuses the rest.  The
                # unsubmitted jobs retry with a fresh pool (the submitted
                # ones surface the breakage at result() below).
                failed.extend(job for job in jobs if job[0] not in futures)
            by_index = {job[0]: job for job in jobs}
            stop_waiting_at = time.monotonic() + self.shard_timeout_s
            with self.tracer.aggregate("scan") as scan_span:
                for index, future in futures.items():
                    remaining = stop_waiting_at - time.monotonic()
                    try:
                        results[index] = future.result(timeout=max(0.0, remaining))
                        scan_span.incr("shards")
                        scan_span.incr("bytes_scanned", len(by_index[index][1]))
                    except ParseError as error:
                        raise ShardScanError(
                            index, getattr(error, "position", None), error
                        ) from error
                    except BuildError:
                        raise
                    except concurrent.futures.TimeoutError:
                        failed.append(by_index[index])
                    except Exception:
                        # BrokenProcessPool (a worker died and took the
                        # pool with it), a cancelled future, pickling
                        # trouble: all retriable with a fresh pool.
                        failed.append(by_index[index])
        finally:
            _shutdown_executor(executor)
        return failed

    def _scan_local(self, job: _ShardJob) -> PartialSynopsis:
        """In-process scan: the fault point may fail, stall, or damage
        the text; lenient recoveries are recorded with exact offsets."""
        index, text, prefix, lenient = job
        with self.tracer.aggregate("scan") as span:
            span.incr("shards")
            span.incr("bytes_scanned", len(text))
            text = faults.fire("build.scan", text)
            if lenient:
                return scan_text(
                    text, prefix, lenient=True, on_recover=self._record_recovery
                )
            return scan_text(text, prefix)

    def _scan_shard_guarded(self, job: _ShardJob) -> PartialSynopsis:
        try:
            return self._scan_local(job)
        except ShardScanError:
            raise
        except ParseError as error:
            raise ShardScanError(
                job[0], getattr(error, "position", None), error
            ) from error

    def _record_recovery(self, offset: int, message: str) -> None:
        self.last_recoveries.append((offset, message))

    def _finalize(self, tables: SynopsisTables, name: str = "") -> "EstimationSystem":
        from repro.core.system import EstimationSystem

        return EstimationSystem.from_statistics(
            tables.encoding_table,
            tables.pathid_table,
            tables.order_table,
            distinct_pathids=tables.distinct_pathids,
            p_variance=self.p_variance,
            o_variance=self.o_variance,
            use_histograms=self.use_histograms,
            build_binary_tree=self.build_binary_tree,
            name=name,
        )


def build_synopsis(
    source: SourceType,
    *,
    p_variance: float = 0.0,
    o_variance: float = 0.0,
    use_histograms: bool = True,
    build_binary_tree: bool = True,
    workers: int = 1,
    shard_bytes: int = DEFAULT_SHARD_BYTES,
    shard_timeout_s: float = DEFAULT_SHARD_TIMEOUT_S,
    worker_retries: int = DEFAULT_WORKER_RETRIES,
    lenient: bool = False,
    name: str = "",
    tracer=NULL_TRACER,
) -> "EstimationSystem":
    """Build an :class:`EstimationSystem` from any source in one call.

    ``source`` may be XML text (anything whose first non-space character
    is ``<``), a filesystem path (``str`` or ``os.PathLike``), or an
    already-parsed :class:`~repro.xmltree.document.XmlDocument`.  Text and
    file sources are *streamed* — the document tree is never built — and
    ``workers > 1`` scans large documents in parallel shards.  The result
    is bit-identical across all source shapes and worker counts.

    This is the package's recommended entry point::

        import repro

        system = repro.build_synopsis("catalog.xml", workers=4)
        system.estimate("//item/$name")
    """
    builder = SynopsisBuilder(
        p_variance=p_variance,
        o_variance=o_variance,
        use_histograms=use_histograms,
        build_binary_tree=build_binary_tree,
        workers=workers,
        shard_bytes=shard_bytes,
        shard_timeout_s=shard_timeout_s,
        worker_retries=worker_retries,
        lenient=lenient,
        tracer=tracer,
    )
    return builder.build(source, name=name)
