"""Hot reload vs in-flight estimates: no batch ever sees a torn swap.

The service resolves the registry entry exactly once per request, so a
reload landing mid-batch must not split the batch across two synopsis
versions.  The tests hammer batches whose per-query answers differ
between two versions of the same snapshot while a writer swaps the file
underneath — every reply vector must equal one version's vector in
full, never a mixture.  Covered both in-process (threads against one
service) and across the pre-fork pool (real workers remapping packs).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import EstimationSystem, persist
from repro.datasets import generate_ssplays
from repro.reliability.shedding import (
    BULK_TIER,
    TieredAdmissionGate,
    default_tiers,
)
from repro.service import (
    EndpointClient,
    EstimationService,
    ServerConfig,
    SynopsisRegistry,
)
from repro.shm import WorkerPool, pool_supported

QUERIES = ["//PLAY", "//ACT", "//SCENE", "//SPEECH"]


@pytest.fixture(scope="module")
def version_a(ssplays_small):
    return EstimationSystem.build(ssplays_small, p_variance=0, o_variance=0)


@pytest.fixture(scope="module")
def version_b():
    document = generate_ssplays(scale=0.1, seed=5)
    return EstimationSystem.build(document, p_variance=0, o_variance=0)


@pytest.fixture(scope="module")
def expected_vectors(version_a, version_b):
    vector_a = tuple(version_a.estimate(text) for text in QUERIES)
    vector_b = tuple(version_b.estimate(text) for text in QUERIES)
    assert vector_a != vector_b, "versions must be distinguishable"
    return {vector_a, vector_b}


def _reply_vector(reply):
    return tuple(item["result"]["value"] for item in reply["results"])


class TestSingleProcess:
    def test_batches_never_mix_generations(
        self, tmp_path, version_a, version_b, expected_vectors
    ):
        path = str(tmp_path / "SSPlays.json")
        persist.save(version_a, path)
        registry = SynopsisRegistry(str(tmp_path), check_interval=0.0)
        registry.scan()
        service = EstimationService(registry)
        stop = threading.Event()
        torn = []

        def writer():
            flip = False
            while not stop.is_set():
                persist.save(version_b if flip else version_a, path)
                flip = not flip
                time.sleep(0.002)

        def reader():
            while not stop.is_set():
                reply = service.handle_estimate(
                    {"synopsis": "SSPlays", "queries": QUERIES}
                )
                vector = _reply_vector(reply)
                if vector not in expected_vectors:
                    torn.append((reply["generation"], vector))
                    return

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(1.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert torn == [], "a batch mixed synopsis versions: %r" % torn[:3]

    def test_reload_landing_exactly_mid_batch_is_invisible(
        self, tmp_path, version_a, version_b, expected_vectors
    ):
        """Deterministic version of the race the chaos tests hunt: force
        the hot swap to land *between* two queries of one batch (via the
        bulk lane's preemption checkpoint) and assert the batch still
        serves the pinned pre-swap version end to end."""
        path = str(tmp_path / "SSPlays.json")
        persist.save(version_a, path)
        registry = SynopsisRegistry(str(tmp_path), check_interval=0.0)
        registry.scan()
        swapped = []

        class ReloadingGate(TieredAdmissionGate):
            def checkpoint(self, tier, max_wait_s=0.0):
                if not swapped:
                    swapped.append(True)
                    persist.save(version_b, path)
                    entry = registry.get("SSPlays")  # in-place hot swap
                    assert entry.generation == 2
                return False

        service = EstimationService(
            registry, gate=ReloadingGate(tiers=default_tiers(8), max_total=8)
        )
        reply = service.handle_estimate(
            {"synopsis": "SSPlays", "queries": QUERIES}, tier=BULK_TIER
        )
        assert swapped, "the checkpoint hook must have fired mid-batch"
        vector_a = tuple(version_a.estimate(text) for text in QUERIES)
        assert _reply_vector(reply) == vector_a
        assert reply["generation"] == 1
        # The next request sees the new version whole.
        after = service.handle_estimate(
            {"synopsis": "SSPlays", "queries": QUERIES}, tier=BULK_TIER
        )
        assert _reply_vector(after) in expected_vectors
        assert _reply_vector(after) != vector_a
        assert after["generation"] == 2

    def test_generation_advances_after_swap(
        self, tmp_path, version_a, version_b
    ):
        path = str(tmp_path / "SSPlays.json")
        persist.save(version_a, path)
        registry = SynopsisRegistry(str(tmp_path), check_interval=0.0)
        registry.scan()
        service = EstimationService(registry)
        first = service.handle_estimate(
            {"synopsis": "SSPlays", "queries": QUERIES}
        )
        persist.save(version_b, path)
        second = service.handle_estimate(
            {"synopsis": "SSPlays", "queries": QUERIES}
        )
        assert second["generation"] == first["generation"] + 1
        assert _reply_vector(second) != _reply_vector(first)


@pytest.mark.skipif(
    not pool_supported(), reason="needs os.fork and SO_REUSEPORT"
)
class TestPreFork:
    def test_pool_batches_never_mix_versions(
        self, tmp_path, version_a, version_b, expected_vectors
    ):
        path = str(tmp_path / "SSPlays.json")
        persist.save(version_a, path)
        config = ServerConfig(port=0, workers=2, reload_interval_s=0.0)
        torn = []
        stop = threading.Event()
        with WorkerPool(
            str(tmp_path), workers=2, config=config, reload_poll_s=0.05
        ) as pool:

            def writer():
                flip = False
                while not stop.is_set():
                    persist.save(version_b if flip else version_a, path)
                    flip = not flip
                    pool.reload(force=True)
                    time.sleep(0.05)

            def reader():
                with EndpointClient(port=pool.port) as client:
                    while not stop.is_set():
                        reply = client._request(
                            "POST",
                            "/estimate",
                            {"synopsis": "SSPlays", "queries": QUERIES},
                        )
                        vector = _reply_vector(reply)
                        if vector not in expected_vectors:
                            torn.append(vector)
                            return

            threads = [threading.Thread(target=writer)]
            threads += [threading.Thread(target=reader) for _ in range(3)]
            for thread in threads:
                thread.start()
            time.sleep(3.0)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert torn == [], "a pooled batch mixed versions: %r" % torn[:3]
