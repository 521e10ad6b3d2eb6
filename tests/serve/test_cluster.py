"""Service-time tables, fault specs, and the cache-warming path."""

import math

import pytest

from repro.exp.cache import ResultCache, clear_memo
from repro.serve import (
    ACCEL_APPROX_BACKEND,
    ArrivalSpec,
    InstanceFault,
    ServePolicy,
    ServiceTimes,
    measure_service_times,
    parse_instance_fault,
    random_instance_fault,
    simulate_serving,
    warm_service_cache,
)


class TestInstanceFault:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown instance fault"):
            InstanceFault(kind="brownout")

    def test_permanent_by_default(self):
        assert InstanceFault(kind="crash").permanent

    def test_windowed_fault_is_not_permanent(self):
        assert not InstanceFault(kind="crash", duration_ms=100).permanent

    def test_fingerprint_encodes_infinity(self):
        assert InstanceFault(kind="crash").fingerprint()["duration_ms"] == "inf"

    def test_random_fault_is_seed_addressed(self):
        assert random_instance_fault(42) == random_instance_fault(42)
        assert random_instance_fault(42) != random_instance_fault(43)


class TestParseGrammar:
    def test_permanent_crash(self):
        fault = parse_instance_fault("crash:0@200")
        assert fault == InstanceFault(kind="crash", instance=0, at_ms=200.0)

    def test_windowed_crash(self):
        fault = parse_instance_fault("crash:1@50+300")
        assert fault.instance == 1
        assert fault.at_ms == 50.0
        assert fault.duration_ms == 300.0

    def test_degrade_with_factor_and_window(self):
        fault = parse_instance_fault("degrade:1@100+500x6")
        assert fault.kind == "degrade"
        assert fault.duration_ms == 500.0
        assert fault.factor == 6.0

    @pytest.mark.parametrize("text", [
        "crash", "crash:0", "crash@200", "meltdown:0@1",
        "crash:x@200", "crash:0@x",
    ])
    def test_bad_specs_rejected_with_grammar_hint(self, text):
        with pytest.raises(ValueError, match="KIND:INSTANCE@MS"):
            parse_instance_fault(text)


class TestServiceTimes:
    def test_approximate_requires_backend_tag(self):
        table = ServiceTimes(system="cpu", exact_ms={"a": 2.0},
                             approx_ms={"a": 2.0})
        assert not table.has_approximate

    def test_service_lookup_by_mode(self):
        table = ServiceTimes(
            system="accel", exact_ms={"a": 2.0}, approx_ms={"a": 0.5},
            approximate_backend=ACCEL_APPROX_BACKEND,
        )
        assert table.service_ms("a", approximate=False) == 2.0
        assert table.service_ms("a", approximate=True) == 0.5

    def test_fingerprint_sorts_benchmarks(self):
        table = ServiceTimes(system="cpu", exact_ms={"b": 1.0, "a": 2.0},
                             approx_ms={"b": 1.0, "a": 2.0})
        assert list(table.fingerprint()["exact_ms"]) == ["a", "b"]


class TestMeasureServiceTimes:
    def test_baseline_pricing_matches_run_system(self, tmp_path):
        from repro.systems import run_system

        cache = ResultCache(tmp_path)
        table = measure_service_times("cpu", ["gcn-cora"], cache=cache)
        direct = run_system("cpu", "gcn-cora", cache=cache)
        assert table.exact_ms["gcn-cora"] == direct.latency_ms
        # Baselines have no cheaper mode: approx mirrors exact, untagged.
        assert table.approx_ms == table.exact_ms
        assert table.approximate_backend is None

    def test_duplicate_benchmarks_priced_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        table = measure_service_times(
            "cpu", ["gcn-cora", "gcn-cora"], cache=cache
        )
        assert list(table.exact_ms) == ["gcn-cora"]

    def test_no_cache_persists_nothing(self, tmp_path):
        """``cache=None`` stores nothing, as it does for ``run_system``:
        the process-default store stays empty."""
        from repro.exp import cache as result_cache

        previous = result_cache.default_cache()
        store = ResultCache(tmp_path)
        result_cache.set_default_cache(store)
        clear_memo()
        try:
            measure_service_times("cpu", ["gcn-cora"], cache=None)
            warm_service_cache(["cpu"], ["gcn-cora"], jobs=1, cache=None)
        finally:
            clear_memo()
            result_cache.set_default_cache(previous)
        assert len(store) == 0

    def test_warming_feeds_measurement(self, tmp_path):
        """After warm_service_cache, pricing is pure cache lookup: the
        tables agree exactly with an unwarmed measurement."""
        clear_memo()
        cold_cache = ResultCache(tmp_path / "cold")
        cold = measure_service_times("gpu", ["gcn-cora"], cache=cold_cache)
        clear_memo()
        warm_cache = ResultCache(tmp_path / "warm")
        warm_service_cache(["gpu"], ["gcn-cora"], jobs=1, cache=warm_cache)
        warmed = measure_service_times("gpu", ["gcn-cora"],
                                       cache=warm_cache)
        clear_memo()
        assert warmed == cold

    def test_multichip_warming_honours_noc_backend(self, tmp_path):
        """The multichip warm-up stores the plan key that measurement on
        ``noc_backend`` reads."""
        from repro.systems import system_plan

        clear_memo()
        cache = ResultCache(tmp_path)
        warm_service_cache(["multichip"], ["gcn-cora"], jobs=1, cache=cache,
                           noc_backend="analytical")
        clear_memo()
        for backend, stored in (("analytical", True), ("packet", False)):
            key = system_plan("multichip", "gcn-cora",
                              noc_backend=backend).key
            assert (cache.get(key) is not None) == stored

    def test_accel_approx_column_is_tagged_and_cheaper(self, tmp_path):
        clear_memo()
        cache = ResultCache(tmp_path)
        table = measure_service_times(
            "accel", ["pgnn-dblp_1"], cache=cache, noc_backend="packet"
        )
        clear_memo()
        assert table.approximate_backend == ACCEL_APPROX_BACKEND
        assert table.approx_ms["pgnn-dblp_1"] <= table.exact_ms["pgnn-dblp_1"]
        assert math.isfinite(table.approx_ms["pgnn-dblp_1"])

    def test_accel_on_the_approximate_noc_has_no_cheaper_mode(self, tmp_path):
        """An exact column already on the approximate NoC is mirrored
        untagged, so overload never claims a degradation."""
        clear_memo()
        cache = ResultCache(tmp_path)
        table = measure_service_times(
            "accel", ["pgnn-dblp_1"], cache=cache,
            noc_backend=ACCEL_APPROX_BACKEND,
        )
        clear_memo()
        assert table.approximate_backend is None
        assert table.approx_ms == table.exact_ms
        # Three times one instance's capacity, degrading from a
        # one-request backlog if the table offered a cheaper mode.
        rate_qps = 3 * 1_000 / table.exact_ms["pgnn-dblp_1"]
        trace = ArrivalSpec(rate_qps=rate_qps, duration_ms=200,
                            seed=2).generate(["pgnn-dblp_1"])
        report = simulate_serving(
            trace, table, instances=1,
            policy=ServePolicy(slo_ms=20.0, queue_bound=200,
                               degrade_queue=1),
        )
        assert report.completed > 0
        assert report.completed_approx == 0
        assert not report.degraded

    @pytest.mark.parametrize("noc_backend, backends", [
        ("packet", ["packet", ACCEL_APPROX_BACKEND]),
        (ACCEL_APPROX_BACKEND, [ACCEL_APPROX_BACKEND]),
    ], ids=["packet", "approximate"])
    def test_accel_warm_up_queues_each_distinct_config_once(
        self, monkeypatch, noc_backend, backends
    ):
        import repro.exp.runner as runner

        queued = []
        monkeypatch.setattr(
            runner, "run_sweep_detailed",
            lambda points, **_: queued.extend(points),
        )
        warm_service_cache(["accel"], ["pgnn-dblp_1"],
                           noc_backend=noc_backend)
        assert [p.config.noc_backend for p in queued] == backends
