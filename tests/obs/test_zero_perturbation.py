"""The observability layer's core contract.

Attaching an :class:`~repro.obs.Observer` must never change what the
simulator computes: every benchmark, on both primary configurations,
produces under instrumentation the report pinned in
``tests/golden_digests.json`` for its NoC backend.  The checks at the
bottom pin the "zero-cost when unattached" half of the contract: no
per-event allocation in the bare loop, and no per-event call into an
attached profiler.
"""

import gc
import tracemalloc

import pytest

from benchmarks.suite.digests import digest
from repro.accel.config import resolve_config
from repro.eval.accelerator import _compiled_program
from repro.obs import Observer
from repro.runtime.engine import simulate
from repro.sim.kernel import Simulator

from tests.test_golden_digests import accel_key, golden

FAST_BENCHMARKS = ("gcn-cora", "gcn-citeseer", "gat-cora", "pgnn-dblp_1")
SLOW_BENCHMARKS = ("gcn-pubmed", "mpnn-qm9_1000")
CONFIG_NAMES = ("CPU iso-BW", "GPU iso-BW")

CASES = [
    pytest.param(benchmark_key, config_name, id=f"{benchmark_key}-{config_name}")
    for benchmark_key in FAST_BENCHMARKS
    for config_name in CONFIG_NAMES
] + [
    pytest.param(benchmark_key, config_name, marks=pytest.mark.slow,
                 id=f"{benchmark_key}-{config_name}")
    for benchmark_key in SLOW_BENCHMARKS
    for config_name in CONFIG_NAMES
]


@pytest.mark.parametrize("benchmark_key,config_name", CASES)
def test_observed_report_bit_identical(benchmark_key, config_name):
    config = resolve_config(config_name)
    observed = simulate(_compiled_program(benchmark_key), config,
                        observer=Observer())
    assert digest(observed) == golden(accel_key(benchmark_key, config))


# -- zero-cost-when-unattached checks -------------------------------------


def _noop() -> None:
    pass


def _peak_alloc_during_bare_run(count: int) -> int:
    """Peak traced allocation while draining ``count`` pre-scheduled
    events with no profiler attached."""
    sim = Simulator()
    for i in range(count):
        sim.post_at(float(i), _noop)
    gc.collect()
    gc.disable()
    try:
        tracemalloc.start()
        sim.run()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    finally:
        gc.enable()
    return peak


def test_no_per_event_allocation_when_unattached():
    """Peak allocation in the bare run loop must not scale with the
    event count: any per-event record (even one small tuple each) for
    6000 extra events would blow the budget by hundreds of KB."""
    _peak_alloc_during_bare_run(2000)  # warm up allocator/caches
    small = _peak_alloc_during_bare_run(2000)
    large = _peak_alloc_during_bare_run(8000)
    assert large - small <= 128 * 1024, (small, large)


class _RecordingProfiler:
    """Records the name of every attribute the kernel reads from it."""

    def __init__(self) -> None:
        self.calls: list[str] = []

    def __getattr__(self, name):
        self.calls.append(name)
        return lambda *args: None


def test_profiler_is_called_per_run_not_per_event():
    """A profiled run executes the bare loop: the kernel calls its
    profiler once before the loop and once after, never per event."""
    events = 20_000
    sim = Simulator()
    for i in range(events):
        sim.post_at(float(i), _noop)
    profiler = _RecordingProfiler()
    sim.run(profiler=profiler)
    assert sim.events_fired == events
    assert profiler.calls == ["start", "stop"]
