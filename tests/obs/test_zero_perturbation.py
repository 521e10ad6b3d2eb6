"""The observability layer's core contract, held differentially.

Attaching an :class:`~repro.obs.Observer` must never change what the
simulator computes: every benchmark, on both primary configurations,
produces a bit-identical report with and without instrumentation, and
the cache key of an observed run is the key a bare run would use.  The
micro-benchmarks at the bottom pin the "zero-cost when unattached" half
of the contract: no per-event allocation and no measurable slowdown of
the bare kernel loop.
"""

import gc
import tracemalloc
from time import perf_counter

import pytest

from repro.eval.accelerator import _compiled_program, run_config
from repro.exp.cache import ResultCache, clear_memo, lookup, point_key
from repro.obs import KernelProfiler, Observer
from repro.runtime.engine import simulate
from repro.runtime.serialize import report_to_dict
from repro.sim.kernel import Simulator
from repro.space import resolve_config

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
    program = _compiled_program(benchmark_key)
    config = resolve_config(config_name)
    bare = simulate(program, config)
    observed = simulate(program, config, observer=Observer())
    assert report_to_dict(bare) == report_to_dict(observed)


def test_observer_leaves_cache_key_unchanged(tmp_path):
    """An observed run stores under the exact key a bare run would use,
    so later bare lookups hit — observer attachment is invisible to the
    cache fingerprint."""
    benchmark = "pgnn-dblp_1"
    config = resolve_config("CPU iso-BW")
    bare_key = point_key(benchmark, config)
    cache = ResultCache(tmp_path)
    clear_memo()
    observer = Observer(timeline=False, phases=False, kernel_profile=False)
    observed = run_config(benchmark, config, cache=cache, observer=observer)
    clear_memo()  # force the lookup to the persistent layer
    hit = lookup(bare_key, cache)
    assert hit is not None
    assert report_to_dict(hit) == report_to_dict(observed)
    clear_memo()


def test_observed_run_key_matches_bare_run_key(tmp_path):
    """Both run styles populate exactly one (shared) cache entry."""
    benchmark = "pgnn-dblp_1"
    config = resolve_config("CPU iso-BW")
    clear_memo()
    bare_cache = ResultCache(tmp_path / "bare")
    observed_cache = ResultCache(tmp_path / "observed")
    run_config(benchmark, config, cache=bare_cache)
    clear_memo()
    run_config(
        benchmark, config, cache=observed_cache,
        observer=Observer(timeline=False, phases=False,
                          kernel_profile=False),
    )
    clear_memo()
    bare_files = sorted(p.name for p in (tmp_path / "bare").rglob("*.json"))
    observed_files = sorted(
        p.name for p in (tmp_path / "observed").rglob("*.json")
    )
    assert bare_files == observed_files
    assert len(bare_files) == 1


# -- zero-cost-when-unattached micro-benchmarks ---------------------------


def _noop() -> None:
    pass


def _drain_events(count: int, profiler=None) -> float:
    """Schedule ``count`` no-op events, drain them, return the wall time."""
    sim = Simulator()
    for i in range(count):
        sim.schedule(float(i), _noop)
    start = perf_counter()
    sim.run(profiler=profiler)
    return perf_counter() - start


def _peak_alloc_during_bare_run(count: int) -> int:
    """Peak traced allocation while draining ``count`` pre-scheduled
    events with no profiler attached."""
    sim = Simulator()
    for i in range(count):
        sim.schedule(float(i), _noop)
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


def test_bare_loop_not_slower_than_profiled():
    """The unattached loop does strictly less work than the profiled
    one; 10% of margin absorbs timer noise."""
    events = 20_000
    _drain_events(events)  # warm-up
    bare = min(_drain_events(events) for _ in range(3))
    profiled = min(
        _drain_events(events, profiler=KernelProfiler()) for _ in range(3)
    )
    assert bare <= profiled * 1.10, (bare, profiled)
