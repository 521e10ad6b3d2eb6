"""Tests for the DSE search drivers.

Driver *logic* (budgets, dedup, generations, selection) runs against a
stubbed sweep — latency is a deterministic function of the configuration
— so these tests are fast and independent of the simulator.  A small
real integration at the end runs the actual engine on gcn-cora under
the analytical NoC backend, including the evolutionary non-worsening
acceptance check.
"""

import json
from types import SimpleNamespace

import pytest

from repro.dse import DRIVERS, driver_names, resolve_driver, run_dse
from repro.errors import UnknownNameError
from repro.exp import runner as runner_module
from repro.exp.runner import PointResult
from repro.space import get_default_space


def _stub_sweep(monkeypatch, fail=lambda config: False):
    """Replace run_sweep_detailed with a deterministic config-priced stub."""
    calls = []

    def fake_sweep(points, jobs=1, cache=None, progress=None, policy=None,
                   **kwargs):
        calls.append([p.resolved_config.name for p in points])
        results = []
        for point in points:
            config = point.resolved_config
            if fail(config):
                results.append(PointResult(
                    point=point, status="crash", error="stubbed crash",
                ))
                continue
            # More ALUs and more bandwidth -> lower latency: a smooth,
            # optimizable surface with a real area/bandwidth trade-off.
            latency = 1000.0 / config.total_alus + 50.0 / (
                config.total_bandwidth_gbps
            )
            results.append(PointResult(
                point=point, status="ok",
                report=SimpleNamespace(latency_ms=latency),
            ))
        return SimpleNamespace(results=results)

    monkeypatch.setattr(runner_module, "run_sweep_detailed", fake_sweep)
    return calls


class TestRegistry:
    def test_three_drivers_registered(self):
        assert driver_names() == ("grid", "random", "evolutionary")

    def test_resolve_returns_the_registered_callable(self):
        assert resolve_driver("random") is DRIVERS["random"]

    def test_unknown_driver_lists_valid_names(self):
        with pytest.raises(UnknownNameError, match="evolutionary"):
            resolve_driver("annealing")


class TestBudgetsAndDedup:
    def test_random_driver_spends_exactly_the_budget(self, monkeypatch):
        _stub_sweep(monkeypatch)
        result = run_dse("gcn-cora", driver="random", points=12, seed=1,
                         cache=None)
        assert len(result.evaluations) == 12
        names = [e.point.config_name for e in result.evaluations]
        assert len(set(names)) == 12  # all distinct

    def test_grid_driver_takes_the_grid_prefix(self, monkeypatch):
        _stub_sweep(monkeypatch)
        result = run_dse("gcn-cora", driver="grid", points=5, cache=None)
        import itertools

        expected = [
            p.values
            for p in itertools.islice(get_default_space().grid(), 5)
        ]
        assert [e.point.values for e in result.evaluations] == expected

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            run_dse("gcn-cora", points=0, cache=None)

    def test_unknown_benchmark_raises_before_search(self, monkeypatch):
        calls = _stub_sweep(monkeypatch)
        with pytest.raises(KeyError):
            run_dse("bert-wikipedia", points=4, cache=None)
        assert calls == []


class TestDeterminism:
    @pytest.mark.parametrize("driver", ("grid", "random", "evolutionary"))
    def test_same_seed_same_document(self, monkeypatch, driver):
        _stub_sweep(monkeypatch)
        docs = [
            json.dumps(
                run_dse("gcn-cora", driver=driver, points=10, seed=42,
                        cache=None).document(),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert docs[0] == docs[1]

    def test_different_seeds_propose_different_points(self, monkeypatch):
        _stub_sweep(monkeypatch)
        a = run_dse("gcn-cora", driver="random", points=8, seed=1,
                    cache=None)
        b = run_dse("gcn-cora", driver="random", points=8, seed=2,
                    cache=None)
        assert [e.point.values for e in a.evaluations] != [
            e.point.values for e in b.evaluations
        ]


class TestEvolutionary:
    def test_runs_multiple_generations_without_repeats(self, monkeypatch):
        _stub_sweep(monkeypatch)
        result = run_dse("gcn-cora", driver="evolutionary", points=20,
                         seed=5, cache=None)
        assert result.generations > 1
        assert len(result.evaluations) == 20
        values = [e.point.values for e in result.evaluations]
        assert len(set(values)) == 20  # dedup across generations

    def test_never_worsens_its_random_init(self, monkeypatch):
        # Guaranteed by construction (the frontier accumulates over all
        # evaluations and the proxy is monotone) — this pins it.
        _stub_sweep(monkeypatch)
        for seed in range(5):
            result = run_dse("gcn-cora", driver="evolutionary", points=24,
                             seed=seed, cache=None)
            assert result.hypervolume() >= result.init_hypervolume()

    def test_init_count_is_the_first_generation(self, monkeypatch):
        _stub_sweep(monkeypatch)
        result = run_dse("gcn-cora", driver="evolutionary", points=24,
                         seed=3, cache=None)
        # budget 24 -> mu = min(8, 24 // 4) = 6
        assert result.init_count == 6


class TestFailureHandling:
    def test_failed_points_recorded_but_kept_off_the_frontier(
        self, monkeypatch
    ):
        _stub_sweep(
            monkeypatch,
            fail=lambda config: config.num_tiles % 2 == 0,
        )
        result = run_dse("gcn-cora", driver="random", points=12, seed=0,
                         cache=None)
        assert len(result.evaluations) == 12
        assert result.failures  # the stub crashed some points
        assert all(e.ok for e in result.frontier())
        doc = result.document()
        assert doc["counts"]["failed"] == len(result.failures)
        statuses = {e["status"] for e in doc["evaluated"]}
        assert "crash" in statuses


class TestDocument:
    def test_schema_and_required_fields(self, monkeypatch):
        _stub_sweep(monkeypatch)
        doc = run_dse("gcn-cora", driver="random", points=6, seed=9,
                      cache=None).document()
        assert doc["schema_version"] == 1
        assert doc["kind"] == "dse"
        assert doc["benchmark"] == "gcn-cora"
        assert doc["space"] == "default"
        assert doc["objectives"] == [
            "latency_ms", "total_alus", "total_bandwidth_gbps",
        ]
        assert doc["counts"]["evaluated"] == 6
        assert 0.0 <= doc["hypervolume_proxy"] <= 1.0
        assert len(doc["frontier"]) == doc["counts"]["frontier"]
        for entry in doc["frontier"]:
            assert set(entry["objectives"]) == set(doc["objectives"])

    def test_json_serializable_without_wall_clock(self, monkeypatch):
        _stub_sweep(monkeypatch)
        doc = run_dse("gcn-cora", driver="random", points=4, seed=2,
                      cache=None).document()
        json.dumps(doc)  # no exotic types
        assert "elapsed" not in json.dumps(doc)


class TestRealIntegration:
    """A small end-to-end search on the actual engine."""

    def test_evolutionary_non_worsening_on_real_latencies(self):
        result = run_dse(
            "gcn-cora", driver="evolutionary", points=8, seed=7,
            noc_backend="analytical",
        )
        assert len(result.evaluations) == 8
        assert not result.failures
        assert result.frontier()
        # The PR's acceptance criterion, on real simulated latencies.
        assert result.hypervolume() >= result.init_hypervolume()

    def test_cached_rerun_is_identical(self):
        kwargs = dict(driver="random", points=4, seed=11,
                      noc_backend="analytical")
        cold = run_dse("gcn-cora", **kwargs)
        warm = run_dse("gcn-cora", **kwargs)  # served by cache/memo now
        assert json.dumps(cold.document(), sort_keys=True) == json.dumps(
            warm.document(), sort_keys=True
        )
        assert any(e.status == "cached" for e in warm.evaluations)
