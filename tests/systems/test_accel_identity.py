"""Differential tests: the ``accel`` backend is the simulator, exactly.

The ``accel`` backend wraps :func:`repro.eval.accelerator.run_config`
behind the :class:`ExecutionBackend` protocol; these tests pin that the
reports coming out of the backend are bit-identical to direct
``simulate`` calls — same event counts, same
latencies, same utilizations — not merely close.
"""

import pytest

from repro.eval.accelerator import run_config
from repro.exp import cache as cache_mod
from repro.models.registry import BENCHMARKS
from repro.systems import run_system
from repro.systems.accel import resolve_accel_config

FAST_BENCHMARKS = ("gcn-cora", "pgnn-dblp_1")


@pytest.mark.parametrize("benchmark_key", FAST_BENCHMARKS)
def test_fresh_backend_execution_is_bit_identical(benchmark_key):
    """Re-executing from scratch (memo dropped, caches off) reproduces
    the direct simulation report field for field."""
    direct = run_config(benchmark_key, resolve_accel_config("CPU iso-BW", 2.4))
    with cache_mod.disabled():
        cache_mod.clear_memo()
        report = run_system("accel", benchmark_key, cache=None)
    assert report.detail == direct
    assert report.latency_ms == direct.latency_ms
    assert report.benchmark == benchmark_key
    cache_mod.clear_memo()


@pytest.mark.slow
@pytest.mark.parametrize(
    "benchmark_key", [b.key for b in BENCHMARKS]
)
def test_backend_matches_run_config_on_every_benchmark(benchmark_key):
    """Full six-benchmark differential (shared cache keeps it viable)."""
    report = run_system("accel", benchmark_key)
    assert report.detail == run_config(
        benchmark_key, resolve_accel_config("CPU iso-BW", 2.4)
    )
    assert report.latency_ms == report.detail.latency_ms


def test_breakdown_mirrors_the_simulation_report():
    report = run_system("accel", "pgnn-dblp_1")
    detail = report.detail
    assert report.breakdown["gpe_utilization"] == detail.gpe_utilization
    assert report.breakdown["dna_utilization"] == detail.dna_utilization
    assert (
        report.breakdown["bandwidth_utilization"]
        == detail.bandwidth_utilization
    )
