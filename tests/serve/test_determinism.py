"""Serving determinism: the ISSUE's bit-identical replay guarantees.

Three layers, matching the acceptance criteria:

1. same seed -> identical request trace (arrivals);
2. same seed -> identical serve report, serialized, across runs *and*
   across ``--jobs`` settings (warming the service cache in parallel
   must not change a single bit of the report);
3. a fault scenario replays identically — crash at a fixed time gives
   the same failover accounting every run.
"""

import pytest

from repro.exp.cache import ResultCache, clear_memo
from repro.serve import (
    ACCEL_APPROX_BACKEND,
    ArrivalSpec,
    InstanceFault,
    ServePolicy,
    ServeReport,
    ServiceTimes,
    measure_service_times,
    simulate_serving,
    warm_service_cache,
)

TABLE = ServiceTimes(
    system="toy", exact_ms={"bench": 2.0}, approx_ms={"bench": 0.5},
    approximate_backend=ACCEL_APPROX_BACKEND,
)
SPEC = ArrivalSpec(rate_qps=600, duration_ms=400, seed=9)
POLICY = ServePolicy(slo_ms=25.0, queue_bound=40, timeout_ms=100.0)
CRASH = InstanceFault(kind="crash", instance=0, at_ms=80.0,
                      duration_ms=150.0)


def serve_once(faults=()):
    trace = SPEC.generate(["bench"])
    return simulate_serving(trace, TABLE, instances=2, policy=POLICY,
                            faults=faults, arrival=SPEC)


def test_trace_replay_is_identical():
    assert SPEC.generate(["bench"]) == SPEC.generate(["bench"])


def test_serve_report_is_bit_identical_across_runs():
    assert serve_once().to_json() == serve_once().to_json()


def test_fault_scenario_replays_identically():
    """Crash at a fixed time -> identical failover accounting: same
    retries, same per-status failures, same per-instance shares."""
    first = serve_once(faults=[CRASH])
    second = serve_once(faults=[CRASH])
    assert first.to_json() == second.to_json()
    assert first.retries == second.retries
    assert first.failed_by_status == second.failed_by_status
    assert [i.to_dict() for i in first.per_instance] \
        == [i.to_dict() for i in second.per_instance]


def test_faulty_run_differs_from_healthy_run():
    # The replay guarantee would be vacuous if faults had no effect.
    assert serve_once().to_json() != serve_once(faults=[CRASH]).to_json()


def test_report_round_trips_through_json():
    report = serve_once(faults=[CRASH])
    assert ServeReport.from_json(report.to_json()).to_json() \
        == report.to_json()


@pytest.mark.parametrize("jobs", [1, 3])
def test_report_identical_for_any_jobs_setting(tmp_path, jobs):
    """End to end on real (baseline) systems: warming the service-time
    cache with N workers never changes the serving report — parallelism
    moves wall-clock time only.  Reports are compared against a
    checked-in-style reference produced serially."""
    systems = ["cpu", "gpu"]
    keys = ["gcn-cora", "gcn-pubmed"]
    spec = ArrivalSpec(rate_qps=80, duration_ms=300, seed=4)
    policy = ServePolicy(slo_ms=400.0)

    def one_report(cache_root, warm_jobs):
        clear_memo()
        cache = ResultCache(cache_root)
        if warm_jobs is not None:
            warm_service_cache(systems, keys, jobs=warm_jobs, cache=cache)
        documents = {}
        for system in systems:
            table = measure_service_times(system, keys, cache=cache)
            trace = spec.generate(keys)
            documents[system] = simulate_serving(
                trace, table, instances=2, policy=policy, arrival=spec
            ).to_json()
        clear_memo()
        return documents

    serial = one_report(tmp_path / "serial", warm_jobs=None)
    warmed = one_report(tmp_path / f"jobs{jobs}", warm_jobs=jobs)
    assert warmed == serial
