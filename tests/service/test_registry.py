"""Registry: scanning, hot reload, failure tolerance, live appends."""

import os
import time

import pytest

from repro import EstimationSystem, persist
from repro.cluster.delta import IncrementalSynopsis
from repro.service import SynopsisRegistry, UnknownSynopsisError
from repro.service import registry as registry_module
from repro.shm import PACK_SUFFIX, write_pack
from repro.stats.maintenance import RequiresRebuild
from repro.xmltree.builder import el
from repro.xmltree.document import XmlDocument

QUERY = "//A/B"


def _touch(path, offset_ns=1):
    """Force a distinct mtime even on coarse-grained filesystems."""
    stamp = time.time_ns() + offset_ns
    os.utime(path, ns=(stamp, stamp))


class TestScanAndGet:
    def test_scan_loads_all_snapshots(self, snapshot_dir):
        registry = SynopsisRegistry(str(snapshot_dir))
        assert registry.scan() == ["SSPlays", "fig1"]
        assert registry.names() == ["SSPlays", "fig1"]
        assert len(registry) == 2

    def test_served_estimates_match_direct(self, snapshot_dir, figure1_system):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        served = registry.system("fig1")
        assert served.estimate(QUERY) == pytest.approx(figure1_system.estimate(QUERY))

    def test_unknown_name(self, snapshot_dir):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        with pytest.raises(UnknownSynopsisError):
            registry.get("nope")

    def test_snapshot_appearing_after_scan(self, snapshot_dir, figure1_system):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        persist.save(figure1_system, str(snapshot_dir / "late.json"))
        assert registry.get("late").system.estimate(QUERY) == pytest.approx(
            figure1_system.estimate(QUERY)
        )

    def test_scan_skips_unloadable_snapshot(self, snapshot_dir):
        (snapshot_dir / "broken.json").write_text("{not json", encoding="utf-8")
        registry = SynopsisRegistry(str(snapshot_dir))
        assert registry.scan() == ["SSPlays", "fig1"]
        assert "broken" in registry.scan_errors
        assert "not valid JSON" in registry.scan_errors["broken"]
        # The bad file is also not servable through the late-load path.
        with pytest.raises(UnknownSynopsisError):
            registry.get("broken")

    def test_late_unloadable_snapshot_is_unknown(self, snapshot_dir):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        (snapshot_dir / "late.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(UnknownSynopsisError):
            registry.get("late")

    def test_describe_shape(self, snapshot_dir):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        info = {entry["name"]: entry for entry in registry.describe()}
        assert info["fig1"]["generation"] == 1
        assert info["fig1"]["paths"] == 4
        assert str(snapshot_dir) in info["fig1"]["source"]


class TestHotReload:
    def test_rewritten_snapshot_is_picked_up(self, snapshot_dir, figure1, figure1_system):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        before = registry.get("fig1")
        assert before.generation == 1

        coarse = EstimationSystem.build(figure1, p_variance=1e9, o_variance=1e9)
        path = str(snapshot_dir / "fig1.json")
        persist.save(coarse, path)
        _touch(path)

        after = registry.get("fig1")
        assert after.generation == 2
        assert after.system.estimate(QUERY) == pytest.approx(coarse.estimate(QUERY))

    def test_unchanged_snapshot_is_not_reloaded(self, snapshot_dir):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        first = registry.get("fig1").system
        assert registry.get("fig1").system is first

    def test_malformed_overwrite_keeps_serving(self, snapshot_dir, figure1_system):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        path = str(snapshot_dir / "fig1.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        _touch(path)

        entry = registry.get("fig1")
        assert entry.generation == 1
        assert entry.load_error is not None and "reload failed" in entry.load_error
        assert entry.system.estimate(QUERY) == pytest.approx(
            figure1_system.estimate(QUERY)
        )
        assert "load_error" in entry.describe()

    def test_deleted_snapshot_keeps_serving(self, snapshot_dir, figure1_system):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        os.unlink(str(snapshot_dir / "fig1.json"))
        entry = registry.get("fig1")
        assert entry.system.estimate(QUERY) == pytest.approx(
            figure1_system.estimate(QUERY)
        )
        assert "unreadable" in entry.load_error

    def test_check_interval_throttles_stat(self, snapshot_dir, figure1):
        fake = [0.0]
        registry = SynopsisRegistry(
            str(snapshot_dir), check_interval=10.0, clock=lambda: fake[0]
        )
        registry.scan()
        path = str(snapshot_dir / "fig1.json")
        persist.save(EstimationSystem.build(figure1, p_variance=1e9), path)
        _touch(path)
        # Within the interval: stale entry is served without a stat.
        fake[0] = 5.0
        assert registry.get("fig1").generation == 1
        # Past the interval: the change is noticed.
        fake[0] = 20.0
        assert registry.get("fig1").generation == 2


class _Clock:
    """The registry's monotonic clock, advanced by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture()
def content_reads(monkeypatch):
    """Counts the registry's snapshot content reads (open + hash)."""
    calls = []
    real = registry_module._read_snapshot

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(registry_module, "_read_snapshot", counting)
    return calls


def _settle(registry, name, clock):
    """Two content reads a settle window apart: stat-only checks follow."""
    registry.get(name)
    clock.now += registry_module._SETTLE_S
    entry = registry.get(name)
    assert entry.watch.settled
    return entry


def _wait_for_timestamp_tick(path):
    """Block until a write would stamp a later ctime than ``path`` has.

    The fake clock stands in for the settle window, but file timestamps
    follow the real one; a real server reaches a settled check two
    seconds after the last write, by which time any later write lands in
    a later timestamp tick.  This reproduces that without the wait.
    """
    ctime = os.stat(path).st_ctime_ns
    probe = path + ".tick"
    while True:
        with open(probe, "w"):
            pass
        if os.stat(probe).st_ctime_ns > ctime:
            break
        time.sleep(0.001)
    os.unlink(probe)


def _same_size_snapshots(first, second):
    """Snapshot bytes of two systems padded to one size (the embedded
    checksum covers the canonical payload, so trailing blanks are
    harmless)."""
    texts = [persist.dumps(system).encode("utf-8") for system in (first, second)]
    size = max(len(text) for text in texts)
    return [text.ljust(size) for text in texts]


def _overwrite_in_place(path, data):
    """Same-size in-place rewrite with the original mtime restored."""
    status = os.stat(path)
    with open(path, "r+b") as handle:
        handle.write(data)
    os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns))
    assert os.stat(path).st_mtime_ns == status.st_mtime_ns


class TestSettleRule:
    """Stat-keyed freshness: a settled file costs a stat, and every
    change the content stamp catches is still caught."""

    @pytest.fixture()
    def clock(self):
        return _Clock()

    @pytest.fixture()
    def pair_dir(self, tmp_path, figure1):
        fine = EstimationSystem.build(figure1, p_variance=0, o_variance=0)
        coarse = EstimationSystem.build(figure1, p_variance=1e9, o_variance=1e9)
        original, replacement = _same_size_snapshots(fine, coarse)
        (tmp_path / "fig1.json").write_bytes(original)
        return tmp_path, replacement, coarse

    def test_settled_unchanged_file_is_only_stat(
        self, snapshot_dir, clock, content_reads
    ):
        registry = SynopsisRegistry(str(snapshot_dir), clock=clock)
        registry.scan()
        _settle(registry, "fig1", clock)
        clock.now += 1.0
        del content_reads[:]
        for _ in range(1000):
            assert registry.get("fig1").generation == 1
        assert content_reads == []

    def test_unsettled_file_reads_content(self, snapshot_dir, clock, content_reads):
        registry = SynopsisRegistry(str(snapshot_dir), clock=clock)
        registry.scan()
        del content_reads[:]
        clock.now += registry_module._SETTLE_S / 2
        registry.get("fig1")
        registry.get("fig1")
        assert len(content_reads) == 2
        assert not registry.get("fig1").watch.settled

    def test_same_mtime_overwrite_before_settling(self, pair_dir, clock):
        directory, replacement, coarse = pair_dir
        registry = SynopsisRegistry(str(directory), clock=clock)
        registry.scan()
        registry.get("fig1")
        path = str(directory / "fig1.json")
        _overwrite_in_place(path, replacement)

        entry = registry.get("fig1")
        assert entry.generation == 2
        assert entry.system.estimate(QUERY) == coarse.estimate(QUERY)

    def test_same_mtime_overwrite_after_settling(self, pair_dir, clock):
        directory, replacement, coarse = pair_dir
        registry = SynopsisRegistry(str(directory), clock=clock)
        registry.scan()
        _settle(registry, "fig1", clock)
        path = str(directory / "fig1.json")
        _wait_for_timestamp_tick(path)
        _overwrite_in_place(path, replacement)

        entry = registry.get("fig1")
        assert entry.generation == 2
        assert entry.system.estimate(QUERY) == coarse.estimate(QUERY)

    def test_atomic_replace_after_settling(self, pair_dir, clock):
        directory, replacement, coarse = pair_dir
        registry = SynopsisRegistry(str(directory), clock=clock)
        registry.scan()
        _settle(registry, "fig1", clock)
        path = str(directory / "fig1.json")
        status = os.stat(path)
        staged = str(directory / "fig1.json.tmp")
        with open(staged, "wb") as handle:
            handle.write(replacement)
        os.utime(staged, ns=(status.st_atime_ns, status.st_mtime_ns))
        os.replace(staged, path)
        assert os.stat(path).st_ino != status.st_ino

        entry = registry.get("fig1")
        assert entry.generation == 2
        assert entry.system.estimate(QUERY) == coarse.estimate(QUERY)

    def test_write_back_does_not_reload_again(self, tmp_path, clock, content_reads):
        document = "<Root>" + "<A><B/><C/></A>" * 6 + "</Root>"
        maintainer = IncrementalSynopsis.build(document, name="demo")
        persist.save(maintainer.system, str(tmp_path / "demo.json"))
        registry = SynopsisRegistry(str(tmp_path), clock=clock)
        registry.scan()
        _settle(registry, "demo", clock)
        partial = registry.system("demo").incremental.scan_fragment("<A><B/></A>")
        entry, outcome = registry.apply_delta("demo", partial)
        assert outcome.refreshed
        merged, generation = entry.system, entry.generation

        for step in (0.0, registry_module._SETTLE_S, 1.0):
            clock.now += step
            again = registry.get("demo")
            assert again.system is merged
            assert again.generation == generation
        assert again.watch.settled
        del content_reads[:]
        registry.get("demo")
        assert content_reads == []

    def test_restaged_pack_after_settling(
        self, snapshot_dir, clock, ssplays_small, ssplays_system
    ):
        pack_path = str(snapshot_dir / ("SSPlays" + PACK_SUFFIX))
        write_pack(pack_path, system=ssplays_system, name="SSPlays")
        registry = SynopsisRegistry(str(snapshot_dir), clock=clock)
        registry.scan()
        entry = _settle(registry, "SSPlays", clock)
        assert entry.packed and entry.pack_watch.settled

        coarse = EstimationSystem.build(ssplays_small, p_variance=1e9, o_variance=1e9)
        write_pack(pack_path, system=coarse, name="SSPlays")
        entry = registry.get("SSPlays")
        assert entry.generation == 2 and entry.packed
        assert entry.system.estimate("//PLAY/ACT") == coarse.estimate("//PLAY/ACT")

    def test_pack_only_entry_after_settling(self, tmp_path, clock, figure1):
        path = str(tmp_path / ("fig1" + PACK_SUFFIX))
        write_pack(path, system=EstimationSystem.build(figure1), name="fig1")
        registry = SynopsisRegistry(str(tmp_path), clock=clock)
        assert registry.scan() == ["fig1"]
        _settle(registry, "fig1", clock)

        coarse = EstimationSystem.build(figure1, p_variance=1e9, o_variance=1e9)
        write_pack(path, system=coarse, name="fig1")
        entry = registry.get("fig1")
        assert entry.generation == 2 and entry.packed
        assert entry.system.estimate(QUERY) == coarse.estimate(QUERY)


def _library_document():
    root = el(
        "lib",
        el("rec", el("author"), el("title")),
        el("rec", el("author"), el("author"), el("title")),
    )
    return XmlDocument(root)


class TestLiveSynopsis:
    def test_append_updates_estimates_without_restart(self):
        registry = SynopsisRegistry()
        entry = registry.register_live("lib", _library_document())
        assert entry.system.estimate("//rec/$author") == pytest.approx(3.0)

        registry.append(
            "lib", entry.live.maintained.document.root,
            el("rec", el("author"), el("title")),
        )
        entry = registry.get("lib")
        assert entry.generation == 2
        assert entry.system.estimate("//rec/$author") == pytest.approx(4.0)
        assert entry.describe()["source"] == "live"

    def test_append_matches_full_rebuild(self):
        registry = SynopsisRegistry()
        entry = registry.register_live("lib", _library_document())
        registry.append(
            "lib", entry.live.maintained.document.root,
            el("rec", el("author"), el("title")),
        )
        rebuilt = EstimationSystem.build(entry.live.maintained.document)
        for query in ("//rec/$author", "//lib/rec", "//rec[/author]/$title"):
            assert registry.system("lib").estimate(query) == pytest.approx(
                rebuilt.estimate(query)
            )

    def test_new_path_type_requires_rebuild(self):
        registry = SynopsisRegistry()
        entry = registry.register_live("lib", _library_document())
        with pytest.raises(RequiresRebuild):
            registry.append(
                "lib", entry.live.maintained.document.root, el("rec", el("editor"))
            )
        # Nothing was mutated: the old estimate still holds.
        assert registry.system("lib").estimate("//rec/$author") == pytest.approx(3.0)

    def test_append_to_non_live_entry(self, figure1_system):
        registry = SynopsisRegistry()
        registry.register("fig1", figure1_system)
        with pytest.raises(ValueError):
            registry.append("fig1", None, el("x"))
