"""Sweep-layer fault tolerance: crashes, timeouts, retries, degradation.

These tests drive :func:`repro.exp.runner.run_sweep_detailed` through
every failure mode: crashes, hangs, deadlines, retries and a worker that
cannot start.  Worker behaviour is steered by monkeypatching
``repro.exp.runner.simulate_point`` in the parent; the runner forks its
workers, which carries the patch into them, so a test can make a
*worker process* kill itself mid-point.
"""

import dataclasses
import multiprocessing
import os
import signal
import time
from multiprocessing.process import BaseProcess

import pytest

import repro.eval.accelerator as eval_accel
import repro.exp.runner as runner_mod
from repro.accel.config import CPU_ISO_BW
from repro.exp.cache import ResultCache, clear_memo, store
from repro.exp.errors import SweepFailed
from repro.exp.runner import (
    Point,
    RetryPolicy,
    run_sweep,
    run_sweep_detailed,
)
from repro.partition.core import ShardSpec
from repro.runtime.report import LayerReport, SimulationReport
from repro.sim.kernel import SimulationError, Simulator


def sample_report(point: Point) -> SimulationReport:
    config = point.resolved_config
    return SimulationReport(
        benchmark=point.benchmark_key,
        config_name=config.name,
        clock_ghz=config.clock_ghz,
        layers=[LayerReport(name="l", start_ns=0.0, end_ns=100.0,
                            num_tasks=1)],
        dram_bytes=1.0,
        dram_wasted_bytes=0.0,
        mean_bandwidth_gbps=1.0,
        bandwidth_utilization=0.5,
        dna_utilization=0.5,
        gpe_utilization=0.5,
        agg_utilization=0.5,
        noc_peak_link_utilization=0.5,
    )


def make_points(tag: str, n: int = 1) -> list[Point]:
    """Points with cache keys unique to one test (the config name is part
    of the fingerprint), so the process-wide memo never crosses tests.
    Clocks are exact integers so tests can select points by value."""
    config = dataclasses.replace(CPU_ISO_BW, name=f"resilience-{tag}")
    return [Point("gcn-cora", config, float(i + 1)) for i in range(n)]


@pytest.fixture
def fake_compile(monkeypatch):
    """Skip real benchmark compilation (simulate_point is faked anyway)."""
    monkeypatch.setattr(eval_accel, "_compiled_program", lambda key: None)


@pytest.fixture
def fresh_cache(tmp_path):
    return ResultCache(tmp_path)


FAST_RETRY = RetryPolicy(retries=2)


class TestSerial:
    def test_duplicate_points_simulated_once(
        self, monkeypatch, fake_compile, fresh_cache
    ):
        """Satellite: dedupe of cache-miss points is by key-set, and a
        duplicated point costs exactly one simulation."""
        calls = []
        monkeypatch.setattr(
            runner_mod, "simulate_point",
            lambda point: (calls.append(point.key),
                                          sample_report(point))[1],
        )
        [point] = make_points("dedupe")
        outcome = run_sweep_detailed(
            [point, point, point], jobs=1, cache=fresh_cache
        )
        assert len(outcome.results) == 3
        assert outcome.ok
        assert len(calls) == 1
        assert outcome.results[0] is outcome.results[2]

    def test_many_duplicates_stay_linear(
        self, monkeypatch, fake_compile, fresh_cache
    ):
        calls = []
        monkeypatch.setattr(
            runner_mod, "simulate_point",
            lambda point: (calls.append(1),
                                          sample_report(point))[1],
        )
        points = make_points("linear", 5) * 40  # 200 inputs, 5 distinct
        outcome = run_sweep_detailed(points, jobs=1, cache=fresh_cache)
        assert len(outcome.results) == 200
        assert len(calls) == 5

    def test_diverged_point_isolated_and_not_retried(
        self, monkeypatch, fake_compile, fresh_cache
    ):
        calls = []

        def fake(point):
            calls.append(point.resolved_config.clock_ghz)
            if point.resolved_config.clock_ghz == 2.0:
                raise SimulationError("layer 'l' deadlocked")
            return sample_report(point)

        monkeypatch.setattr(runner_mod, "simulate_point", fake)
        points = make_points("diverge", 3)
        outcome = run_sweep_detailed(
            points, jobs=1, cache=fresh_cache, policy=FAST_RETRY
        )
        assert not outcome.ok
        assert [r.status for r in outcome.results] == [
            "ok", "diverged", "ok"
        ]
        assert outcome.reports[1] is None
        failed = outcome.failures[0]
        assert failed.attempts == 1  # deterministic failures never retry
        assert "deadlocked" in failed.error
        assert len(calls) == 3  # every other point still ran
        assert "1 failed" in outcome.summary()

    def test_strict_run_sweep_raises_typed_failure(
        self, monkeypatch, fake_compile, fresh_cache
    ):
        def fake(point):
            raise SimulationError("watchdog tripped (max_time)")

        monkeypatch.setattr(runner_mod, "simulate_point", fake)
        with pytest.raises(SweepFailed) as exc:
            run_sweep(make_points("strict"), jobs=1, cache=fresh_cache)
        outcome = exc.value.outcome
        assert outcome.failures[0].status == "diverged"
        assert "watchdog" in str(exc.value)

    def test_serial_wall_budget_trips_as_timeout(self, fresh_cache):
        """End to end, no fakes: a real simulation under a microscopic
        wall budget diagnoses as a timeout, not a hang."""
        [point] = make_points("wallclock")
        outcome = run_sweep_detailed(
            [point], jobs=1, cache=fresh_cache,
            policy=RetryPolicy(timeout_s=1e-4),
        )
        assert [r.status for r in outcome.results] == ["timeout"]
        assert "(worker killed)" in outcome.results[0].error

    def test_serial_multichip_point_is_bounded(self, fresh_cache):
        """The budget bounds every system, not just the accelerator: a
        serial multichip point runs in a worker and is killed late."""
        clear_memo()  # the point and its shards must really simulate
        point = Point("gcn-cora", CPU_ISO_BW, system="multichip")
        outcome = run_sweep_detailed(
            [point], jobs=1, cache=fresh_cache,
            policy=RetryPolicy(timeout_s=0.01),
        )
        assert [r.status for r in outcome.results] == ["timeout"]
        assert "(worker killed)" in outcome.results[0].error

    def test_budget_spans_every_layer(self, monkeypatch, fresh_cache):
        """One deadline bounds the whole point: four layers that each
        fit the budget still exceed it together.  The wrapper reaches
        the worker through fork."""
        run = Simulator.run

        def slow_run(self, *args, **kwargs):
            time.sleep(0.05)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", slow_run)
        [point] = make_points("layers")
        outcome = run_sweep_detailed(
            [point], jobs=1, cache=fresh_cache,
            policy=RetryPolicy(timeout_s=0.15),
        )
        assert [r.status for r in outcome.results] == ["timeout"]

    def test_cached_point_status(
        self, monkeypatch, fake_compile, fresh_cache
    ):
        [point] = make_points("cachehit")
        store(point.key, sample_report(point), fresh_cache)
        seen = []
        outcome = run_sweep_detailed(
            [point], jobs=1, cache=fresh_cache,
            progress=lambda p, r, cached: seen.append(cached),
        )
        assert outcome.results[0].status == "cached"
        assert outcome.results[0].attempts == 0
        assert seen == [True]


class TestParallel:
    def test_killed_worker_is_retried_and_sweep_completes(
        self, monkeypatch, fake_compile, fresh_cache, tmp_path
    ):
        """Acceptance: a worker killed mid-run fails only its own point,
        the point is retried, and every other point's result arrives."""
        sentinel = tmp_path / "already-died"

        def fake(point):
            if (point.resolved_config.clock_ghz == 1.0
                    and not sentinel.exists()):
                sentinel.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return sample_report(point)

        monkeypatch.setattr(runner_mod, "simulate_point", fake)
        points = make_points("kill", 3)
        outcome = run_sweep_detailed(
            points, jobs=2, cache=fresh_cache, policy=FAST_RETRY
        )
        assert outcome.ok, outcome.summary()
        by_clock = {
            r.point.resolved_config.clock_ghz: r for r in outcome.results
        }
        assert by_clock[1.0].attempts >= 2  # retried after the kill
        assert all(r.report is not None for r in outcome.results)
        assert multiprocessing.active_children() == []

    def test_always_crashing_point_exhausts_retries(
        self, monkeypatch, fake_compile, fresh_cache
    ):
        def fake(point):
            if point.resolved_config.clock_ghz == 1.0:
                # Let the innocent point's result land before the worker
                # dies, so the test observes clean crash isolation.
                time.sleep(0.4)
                os.kill(os.getpid(), signal.SIGKILL)
            return sample_report(point)

        monkeypatch.setattr(runner_mod, "simulate_point", fake)
        points = make_points("crashloop", 2)
        outcome = run_sweep_detailed(
            points, jobs=2, cache=fresh_cache,
            policy=RetryPolicy(retries=1),
        )
        statuses = {
            r.point.resolved_config.clock_ghz: r.status
            for r in outcome.results
        }
        assert statuses[1.0] == "crash"
        assert statuses[2.0] == "ok"
        failed = outcome.failures[0]
        assert failed.attempts == 2  # first try + one retry
        assert "retry budget" in failed.error
        assert multiprocessing.active_children() == []

    def test_hung_worker_killed_at_deadline(
        self, monkeypatch, fake_compile, fresh_cache
    ):
        def fake(point):
            if point.resolved_config.clock_ghz == 1.0:
                time.sleep(30)
            return sample_report(point)

        monkeypatch.setattr(runner_mod, "simulate_point", fake)
        points = make_points("hang", 2)
        start = time.monotonic()
        outcome = run_sweep_detailed(
            points, jobs=2, cache=fresh_cache,
            policy=RetryPolicy(timeout_s=0.5, retries=0),
        )
        elapsed = time.monotonic() - start
        assert elapsed < 20  # nowhere near the worker's 30 s sleep
        statuses = {
            r.point.resolved_config.clock_ghz: r.status
            for r in outcome.results
        }
        assert statuses[1.0] == "timeout"
        assert statuses[2.0] == "ok"
        assert "wall-clock budget" in outcome.failures[0].error
        assert multiprocessing.active_children() == []

    def test_deadline_starts_when_the_worker_receives_the_point(
        self, monkeypatch, fake_compile, fresh_cache
    ):
        """Ten 0.5 s points on two workers take 2.5 s, yet none exceeds
        its 1 s budget: time spent queued is not charged."""
        def fake(point):
            time.sleep(0.5)
            return sample_report(point)

        monkeypatch.setattr(runner_mod, "simulate_point", fake)
        outcome = run_sweep_detailed(
            make_points("queued", 10), jobs=2, cache=fresh_cache,
            policy=RetryPolicy(timeout_s=1.0),
        )
        assert [r.status for r in outcome.results] == ["ok"] * 10

    def test_deadline_kills_only_the_late_worker(
        self, monkeypatch, fake_compile, fresh_cache, tmp_path
    ):
        """A hung point is killed alone: every other point runs exactly
        once, and no worker outlives the sweep."""
        starts = tmp_path / "starts"
        starts.mkdir()

        def fake(point):
            clock = point.resolved_config.clock_ghz
            with open(starts / f"{clock:g}", "a") as log:
                log.write("start\n")
            time.sleep(60 if clock == 1.0 else 1.2)
            return sample_report(point)

        monkeypatch.setattr(runner_mod, "simulate_point", fake)
        points = make_points("onlylate", 5)
        outcome = run_sweep_detailed(
            points, jobs=2, cache=fresh_cache,
            policy=RetryPolicy(timeout_s=2.0),
        )
        assert [r.status for r in outcome.results] == [
            "timeout", "ok", "ok", "ok", "ok"
        ]
        assert {
            path.name: path.read_text().count("start")
            for path in starts.iterdir()
        } == {f"{clock:g}": 1 for clock in range(1, 6)}
        assert multiprocessing.active_children() == []

    def test_pool_start_failure_degrades_to_serial(
        self, monkeypatch, fake_compile, fresh_cache
    ):
        monkeypatch.setattr(
            runner_mod, "simulate_point",
            lambda point: sample_report(point),
        )

        def no_fork(process):
            raise OSError("no processes for you")

        monkeypatch.setattr(BaseProcess, "start", no_fork)
        points = make_points("nopool", 3)
        with pytest.warns(RuntimeWarning, match="serial"):
            outcome = run_sweep_detailed(
                points, jobs=4, cache=fresh_cache, policy=FAST_RETRY
            )
        assert outcome.ok
        assert all(r.status == "ok" for r in outcome.results)

    def test_parallel_failure_keeps_other_reports(
        self, monkeypatch, fake_compile, fresh_cache
    ):
        def fake(point):
            if point.resolved_config.clock_ghz == 2.0:
                raise SimulationError("injected divergence")
            return sample_report(point)

        monkeypatch.setattr(runner_mod, "simulate_point", fake)
        points = make_points("pardiv", 4)
        outcome = run_sweep_detailed(
            points, jobs=2, cache=fresh_cache, policy=FAST_RETRY
        )
        statuses = [r.status for r in outcome.results]
        assert statuses.count("diverged") == 1
        assert statuses.count("ok") == 3


class TestUnbuildableProgram:
    @pytest.mark.parametrize("jobs, policy", [
        (1, RetryPolicy()),
        (2, RetryPolicy()),
        (1, RetryPolicy(timeout_s=60.0)),
    ], ids=["serial", "parallel", "serial-with-budget"])
    def test_each_point_fails_alone(self, jobs, policy, fresh_cache):
        # More shards than cora has vertices: the programs cannot be
        # built, before or after forking, and the sweep still finishes.
        config = dataclasses.replace(CPU_ISO_BW, name="resilience-unbuilt")
        points = [Point("gcn-cora", config, shard=ShardSpec(5000, index))
                  for index in range(2)]
        points.append(Point("gcn-cora", system="cpu"))
        outcome = run_sweep_detailed(points, jobs=jobs, cache=fresh_cache,
                                     policy=policy)
        unbuilt, runs = outcome.results[:2], outcome.results[2]
        assert [r.status for r in unbuilt] == ["error", "error"]
        assert {r.error for r in unbuilt} == {
            "ValueError: cannot split 2708 items into 5000 non-empty parts"
        }
        assert [r.attempts for r in unbuilt] == [1, 1]
        assert runs.ok
        assert multiprocessing.active_children() == []


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
