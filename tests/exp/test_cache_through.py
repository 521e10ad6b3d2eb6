"""The caller's cache choice reaches every simulation underneath.

``run_system`` and ``run_sweep_detailed`` take a ``cache``; the systems
that run inner simulations (``accel``, ``multichip``'s shards) must read
and store those simulations there too — never in the process default
behind the caller's back, in this process or in a pool worker.
"""

import pytest

from repro.exp import cache as result_cache
from repro.exp.cache import ResultCache, point_key
from repro.exp.runner import Point, run_sweep_detailed
from repro.partition.shards import partition_benchmark
from repro.systems import create_system, run_system, system_plan

SYSTEMS = ("accel", "multichip")


@pytest.fixture
def default_store(tmp_path, monkeypatch):
    """An empty process-default cache on the analytical NoC, with the
    memo cleared so every run reaches the persistent stores."""
    monkeypatch.setenv("REPRO_NOC_BACKEND", "analytical")
    previous = result_cache.default_cache()
    store = ResultCache(tmp_path / "default")
    result_cache.set_default_cache(store)
    result_cache.clear_memo()
    yield store
    result_cache.clear_memo()
    result_cache.set_default_cache(previous)


def inner_keys(system: str, benchmark: str) -> set[str]:
    """The keys of the simulations ``system`` runs for ``benchmark``."""
    backend = create_system(system)
    if system == "accel":
        return {point_key(benchmark, backend.config)}
    mc = backend.multichip
    partition = partition_benchmark(benchmark, mc.chips, mc.method, mc.seed)
    return {
        point_key(benchmark, backend.config, shard=partition.spec(index))
        for index in range(mc.chips)
    }


@pytest.mark.parametrize("system", SYSTEMS)
def test_no_cache_persists_nothing(system, default_store):
    run_system(system, "gcn-cora", cache=None)
    assert len(default_store) == 0


@pytest.mark.parametrize("system", SYSTEMS)
def test_callers_cache_holds_the_inner_simulations(
    system, default_store, tmp_path
):
    mine = ResultCache(tmp_path / "mine")
    run_system(system, "gcn-cora", cache=mine)
    assert len(default_store) == 0
    expected = {system_plan(system, "gcn-cora").key}
    expected |= inner_keys(system, "gcn-cora")
    assert all(key in mine for key in expected)
    assert len(mine) == len(expected)


def test_pooled_sweep_keeps_shards_in_the_callers_cache(
    default_store, tmp_path
):
    mine = ResultCache(tmp_path / "mine")
    points = [Point(key, system="multichip")
              for key in ("gcn-cora", "gat-cora")]
    outcome = run_sweep_detailed(points, jobs=2, cache=mine)
    assert outcome.ok, outcome.summary()
    assert len(default_store) == 0
    expected = {point.key for point in points}
    for point in points:
        expected |= inner_keys("multichip", point.benchmark_key)
    assert all(key in mine for key in expected)
    assert len(mine) == len(expected) == 6
