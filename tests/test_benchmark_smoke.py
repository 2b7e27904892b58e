"""Smoke tests for the benchmark modules at tiny scale.

``pytest benchmarks/ --benchmark-only`` is the real run; these tests wire
a miniature BenchContext and a stub ``benchmark`` fixture through a
representative subset of the bench functions so that regressions in the
experiment code surface in the plain test suite too.
"""

from __future__ import annotations

import pytest

import benchmarks.conftest as bench_conftest
from benchmarks.conftest import BenchContext
from repro.harness.tables import clear_results, rendered_results


class _StubBenchmark:
    """Mimics pytest-benchmark's fixture: runs the callable once."""

    def pedantic(self, target, rounds=1, iterations=1, args=(), kwargs=None):
        return target(*args, **(kwargs or {}))

    def __call__(self, target, *args, **kwargs):
        return target(*args, **kwargs)


@pytest.fixture(scope="module")
def tiny_ctx(tmp_path_factory):
    """A BenchContext over miniature datasets and workloads."""
    original_scale = bench_conftest.BENCH_SCALE
    original_raw = bench_conftest.BENCH_RAW
    bench_conftest.BENCH_SCALE = 0.3
    bench_conftest.BENCH_RAW = 80
    try:
        yield BenchContext()
    finally:
        bench_conftest.BENCH_SCALE = original_scale
        bench_conftest.BENCH_RAW = original_raw


@pytest.fixture(autouse=True)
def isolated_results(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    clear_results()
    yield
    clear_results()


class TestBenchSmoke:
    def test_table1(self, tiny_ctx):
        from benchmarks.bench_table1_datasets import test_table1_dataset_characteristics

        test_table1_dataset_characteristics(tiny_ctx, _StubBenchmark())
        assert "table1_datasets" in rendered_results()

    def test_table3(self, tiny_ctx):
        from benchmarks.bench_table3_space import test_table3_space_requirements

        test_table3_space_requirements(tiny_ctx, _StubBenchmark())
        assert "Binary Tree" in rendered_results() or "BinTree" in rendered_results()

    def test_fig9(self, tiny_ctx):
        from benchmarks.bench_fig9_memory import test_fig9_histogram_memory

        test_fig9_histogram_memory(tiny_ctx, _StubBenchmark())
        assert "Figure 9" in rendered_results()

    def test_ablation_pathjoin(self, tiny_ctx):
        from benchmarks.bench_ablation_pathjoin import test_ablation_pathjoin_variants

        test_ablation_pathjoin_variants(tiny_ctx, _StubBenchmark())
        assert "Ablation C" in rendered_results()

    def test_structural_join(self, tiny_ctx):
        from benchmarks.bench_structural_join import test_structural_join_pruning

        test_structural_join_pruning(tiny_ctx, _StubBenchmark())
        assert "path-id pruning" in rendered_results()

    def test_ablation_depth_refined(self, tiny_ctx):
        from benchmarks.bench_ablation_depth_refined import (
            test_ablation_depth_refined_statistics,
        )

        test_ablation_depth_refined_statistics(tiny_ctx, _StubBenchmark())
        assert "Ablation D" in rendered_results()

    def test_service_throughput(self, tiny_ctx):
        from benchmarks.bench_service_throughput import test_service_throughput

        test_service_throughput(tiny_ctx, _StubBenchmark())
        assert "service throughput" in rendered_results()

    def test_service_degraded(self, tiny_ctx, monkeypatch):
        import benchmarks.bench_service_degraded as bench

        # Shrink the sweep: fewer queries and shorter stalls.
        monkeypatch.setattr(bench, "MAX_QUERIES", 24)
        monkeypatch.setattr(bench, "FAULT_DELAY_S", 0.02)
        bench.test_service_degraded(tiny_ctx, _StubBenchmark())
        assert "injected" in rendered_results()

    def test_obs_overhead(self, tiny_ctx, monkeypatch):
        import benchmarks.bench_obs_overhead as bench

        # Tiny sweep, fewer repeats; disarm the jitter-sensitive gate —
        # micro-loops over a handful of queries swing far more than the
        # full benchmark's medians.
        monkeypatch.setattr(bench, "MAX_QUERIES", 16)
        monkeypatch.setattr(bench, "REPEATS", 3)
        monkeypatch.setattr(bench, "CLIENT_THREADS", 2)
        monkeypatch.setattr(bench, "OVERHEAD_HARD_LIMIT", 10.0)
        bench.test_obs_overhead(tiny_ctx, _StubBenchmark())
        assert "observability overhead" in rendered_results()

    def test_service_workers(self, tiny_ctx, monkeypatch, tmp_path_factory):
        import benchmarks.bench_service_workers as bench

        if not bench.pool_supported():
            pytest.skip("needs os.fork and SO_REUSEPORT")
        # Two pool sizes, a light sweep: forking real workers dominates.
        monkeypatch.setattr(bench, "MAX_QUERIES", 12)
        monkeypatch.setattr(bench, "CLIENT_PROCESSES", 2)
        monkeypatch.setattr(bench, "PASSES", 2)
        bench.test_service_worker_scaling(
            tiny_ctx, _StubBenchmark(), tmp_path_factory, points=(1, 2)
        )
        assert "worker-pool scaling" in rendered_results()

    def test_cluster_scaling(self, tiny_ctx, monkeypatch, tmp_path_factory):
        import benchmarks.bench_cluster_scaling as bench

        if not hasattr(__import__("os"), "fork"):
            pytest.skip("backend processes need os.fork")
        # Two backends, a light sweep: forking real backends dominates.
        monkeypatch.setattr(bench, "BACKENDS", 2)
        monkeypatch.setattr(bench, "CLIENT_PROCESSES", 2)
        monkeypatch.setattr(bench, "PASSES", 1)
        monkeypatch.setattr(bench, "MAX_QUERIES", 8)
        monkeypatch.setattr(bench, "MIN_SCALING", 0.0)
        bench.test_cluster_router_scaling(
            tiny_ctx, _StubBenchmark(), tmp_path_factory
        )
        assert "scatter-gather router scaling" in rendered_results()

    def test_cluster_delta(self, tiny_ctx, monkeypatch):
        import benchmarks.bench_cluster_scaling as bench

        # A tiny corpus relaxes the speedup bar: re-deriving histograms
        # has fixed costs that only amortize at real scale.  The
        # bit-identity assertion stays.
        monkeypatch.setattr(bench, "DELTA_TARGET_BYTES", 150_000)
        monkeypatch.setattr(bench, "MIN_DELTA_SPEEDUP", 0.0)
        bench.test_delta_apply_vs_full_rebuild(tiny_ctx, _StubBenchmark())
        assert "delta apply" in rendered_results()

    def test_throughput_kernel_gate(self, tiny_ctx):
        """Perf smoke: the uncached kernel join must not be slower than
        the dict-join oracle, even at tiny scale (CI runs exactly this
        gate)."""
        import benchmarks.bench_throughput as bench

        system = tiny_ctx.factory("XMark").system(0, 0)
        items = tiny_ctx.workload("XMark").no_order()[:60]
        assert items
        before = system.semcache.stats()
        kernel_s, legacy_s = bench._kernel_vs_legacy(system, items, repeats=3)
        after = system.semcache.stats()
        # Both arms time real joins: the semantic cache sees no traffic.
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert kernel_s <= legacy_s, (
            "kernel sweep %.1f ms slower than oracle %.1f ms"
            % (1e3 * kernel_s, 1e3 * legacy_s)
        )

    def test_traffic_capacity(self, tiny_ctx, monkeypatch):
        import benchmarks.bench_traffic_capacity as bench

        # Two short levels, a small worker pool; disarm the
        # jitter-sensitive latency gate — at one-second levels the p99
        # is a handful of samples.
        monkeypatch.setattr(bench, "OFFERED_QPS", (15.0, 60.0))
        monkeypatch.setattr(bench, "DURATION_S", 1.0)
        monkeypatch.setattr(bench, "WORKERS", 8)
        monkeypatch.setattr(bench, "MAX_QUERIES", 8)
        monkeypatch.setattr(bench, "P99_ADVANTAGE", 0.0)
        bench.test_traffic_capacity(tiny_ctx, _StubBenchmark())
        assert "traffic capacity" in rendered_results()

    def test_build_throughput(self, tiny_ctx, monkeypatch):
        import benchmarks.bench_build_throughput as bench

        # Keep the tiled document tiny; the real run tiles to ~6 MB.
        monkeypatch.setattr(bench, "TARGET_BYTES", 200_000)
        bench.test_build_throughput(tiny_ctx, _StubBenchmark())
        assert "build_throughput" in rendered_results()
