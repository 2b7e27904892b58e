"""Hot-reload fallback: a bad replacement snapshot never changes estimates.

The acceptance property: truncating a snapshot underneath a serving
registry leaves every estimate bit-identical (last-good kept), flips the
entry to degraded, and bumps ``reload_failures`` — and a fixed snapshot
heals it all without a restart.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import EstimationSystem, persist
from repro.reliability import faults
from repro.reliability.faults import FailFault, FaultInjector
from repro.service import SynopsisRegistry
from repro.service.registry import UnknownSynopsisError


def touch_newer(path):
    stamp = time.time_ns() + 1_000_000
    os.utime(path, ns=(stamp, stamp))


@pytest.fixture()
def registry(snapshot_dir):
    registry = SynopsisRegistry(str(snapshot_dir))
    registry.scan()
    return registry


class TestTruncatedReload:
    def test_truncated_snapshot_keeps_last_good(self, registry, snapshot_dir):
        path = str(snapshot_dir / "fig1.json")
        before = registry.get("fig1")
        baseline = before.system.estimate("//A/B")
        generation = before.generation

        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[: len(text) // 2])
        touch_newer(path)

        entry = registry.get("fig1")
        assert entry.system.estimate("//A/B") == baseline
        assert entry.generation == generation
        assert entry.degraded
        assert "reload failed" in entry.load_error
        assert registry.reload_failures == 1
        assert registry.degraded() == {"fig1": entry.load_error}
        assert entry.describe()["degraded"] is True

    def test_degraded_counts_once_per_incident(self, registry, snapshot_dir):
        path = str(snapshot_dir / "fig1.json")
        with open(path, "w") as handle:
            handle.write("{torn")
        touch_newer(path)
        for _ in range(5):
            registry.get("fig1")
        assert registry.reload_failures == 1

    def test_fixed_snapshot_heals_without_restart(
        self, registry, snapshot_dir, figure1
    ):
        path = str(snapshot_dir / "fig1.json")
        with open(path, "w") as handle:
            handle.write("{torn")
        touch_newer(path)
        registry.get("fig1")
        assert registry.degraded()

        coarse = EstimationSystem.build(figure1, p_variance=1e9, o_variance=1e9)
        persist.save(coarse, path)
        touch_newer(path)
        entry = registry.get("fig1")
        assert not entry.degraded
        assert entry.generation == 2
        assert entry.system.estimate("//A/B") == coarse.estimate("//A/B")
        assert registry.degraded() == {}
        # The failure counter is history, not state: it does not reset.
        assert registry.reload_failures == 1

    def test_deleted_snapshot_keeps_serving_degraded(self, registry, snapshot_dir):
        path = str(snapshot_dir / "fig1.json")
        baseline = registry.get("fig1").system.estimate("//A/B")
        os.unlink(path)
        entry = registry.get("fig1")
        assert entry.system.estimate("//A/B") == baseline
        assert "unreadable" in entry.load_error
        assert registry.reload_failures == 1

    def test_read_fault_during_reload_keeps_last_good(self, registry, snapshot_dir):
        baseline = registry.get("fig1").system.estimate("//A/B")
        injector = FaultInjector().plan(
            "registry.load", FailFault(OSError, "io error", times=3)
        )
        with faults.inject(injector):
            entry = registry.get("fig1")
            assert entry.system.estimate("//A/B") == baseline
            assert entry.degraded
        # Faults cleared: the next check recovers by itself.
        assert not registry.get("fig1").degraded

    def test_corrupt_initial_load_is_unknown_not_crash(self, tmp_path):
        with open(str(tmp_path / "bad.json"), "w") as handle:
            handle.write("{torn")
        registry = SynopsisRegistry(str(tmp_path))
        assert registry.scan() == []
        assert "bad" in registry.scan_errors
        with pytest.raises(UnknownSynopsisError):
            registry.get("bad")


class TestStampChecksum:
    def test_same_mtime_overwrite_is_detected(
        self, registry, snapshot_dir, figure1
    ):
        # An overwrite that restores the original mtime (coarse clocks,
        # mtime-preserving copies) defeats a stat-only stamp; the content
        # checksum in the stamp still catches it.
        path = str(snapshot_dir / "fig1.json")
        registry.get("fig1")
        status = os.stat(path)
        coarse = EstimationSystem.build(figure1, p_variance=1e9, o_variance=1e9)
        persist.save(coarse, path)
        os.utime(path, ns=(status.st_mtime_ns, status.st_mtime_ns))

        entry = registry.get("fig1")
        assert entry.generation == 2
        assert entry.system.estimate("//A/B") == coarse.estimate("//A/B")

    def test_untouched_snapshot_does_not_reload(self, registry):
        first = registry.get("fig1")
        assert registry.get("fig1").generation == first.generation == 1


class TestNonUtf8Snapshot:
    """Bytes that are not UTF-8 are a malformed snapshot, not a crash."""

    def test_scan_records_non_utf8_file(self, snapshot_dir):
        (snapshot_dir / "bad.json").write_bytes(b"\xff\xfe")
        registry = SynopsisRegistry(str(snapshot_dir))
        assert registry.scan() == ["fig1"]
        assert "not valid UTF-8" in registry.scan_errors["bad"]

    def test_non_utf8_overwrite_keeps_last_good(self, registry, snapshot_dir):
        path = str(snapshot_dir / "fig1.json")
        before = registry.get("fig1")
        baseline = before.system.estimate("//A/B")
        with open(path, "wb") as handle:
            handle.write(b"\xff" * 50)
        touch_newer(path)

        entry = registry.get("fig1")
        assert entry.system.estimate("//A/B") == baseline
        assert entry.generation == before.generation
        assert entry.degraded
        assert "not valid UTF-8" in entry.load_error
        assert registry.reload_failures == 1

    def test_late_non_utf8_snapshot_is_unknown(self, registry, snapshot_dir):
        (snapshot_dir / "late.json").write_bytes(b"\xff" * 50)
        with pytest.raises(UnknownSynopsisError):
            registry.get("late")
