"""The observability layer's core contract.

Attaching an :class:`~repro.obs.Observer` must never change what the
simulator computes: every benchmark, on both primary configurations,
produces under instrumentation the report pinned in
``tests/golden_digests.json`` for its NoC backend, and the cache key of
an observed run is the key a bare run would use.  The checks at the
bottom pin the "zero-cost when unattached" half of the contract: no
per-event allocation in the bare loop, and no per-event call into an
attached profiler.
"""

import gc
import tracemalloc

import pytest

from benchmarks.suite.digests import digest
from repro.eval.accelerator import _compiled_program, run_config
from repro.exp.cache import ResultCache, clear_memo, lookup, point_key
from repro.obs import Observer
from repro.runtime.engine import simulate
from repro.runtime.serialize import report_to_dict
from repro.sim.kernel import Simulator
from repro.space import resolve_config

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
