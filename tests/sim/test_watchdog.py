"""Watchdog budget tests: every axis trips with a usable diagnosis."""

import time

import pytest

from repro.sim import (
    SimulationError,
    Simulator,
    WatchdogConfig,
    WatchdogTrip,
)


def run_with(sim: Simulator, config: WatchdogConfig) -> None:
    sim.run(watchdog=config)


class TestConfig:
    def test_defaults_are_enabled(self):
        config = WatchdogConfig()
        assert config.max_events is not None
        assert config.max_time_ms is not None
        assert config.stall_events is not None
        assert config.max_wall_s is None

    def test_all_none_disables(self):
        """An all-None config runs unbounded: the far-future event the
        default time budget stops at fires."""
        sim = Simulator()
        fired = []
        sim.schedule(1e15, fired.append, "far")  # 1e9 ms of simulated time
        with pytest.raises(WatchdogTrip):
            run_with(sim, WatchdogConfig())
        run_with(sim, WatchdogConfig(
            max_events=None, max_time_ms=None, max_wall_s=None,
            stall_events=None,
        ))
        assert fired == ["far"]

    @pytest.mark.parametrize("field,value", [
        ("max_events", 0),
        ("max_events", -1),
        ("stall_events", 0),
        ("max_time_ms", 0.0),
        ("max_time_ms", -5.0),
        ("max_wall_s", 0.0),
    ])
    def test_invalid_budgets_rejected(self, field, value):
        with pytest.raises(ValueError):
            WatchdogConfig(**{field: value})


class TestTrips:
    def test_max_events_trips(self):
        sim = Simulator()

        def chain(n):
            sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        with pytest.raises(WatchdogTrip) as exc:
            run_with(sim, WatchdogConfig(max_events=25, stall_events=None))
        diagnosis = exc.value.diagnosis
        assert diagnosis.reason == "max_events"
        assert diagnosis.budget == 25
        assert diagnosis.events_fired == 25
        assert "max_events" in str(exc.value)

    def test_max_time_trips_before_time_jumps(self):
        """A single far-future event trips the simulated-time budget while
        `now` still reflects the last healthy event."""
        sim = Simulator()
        sim.schedule(100.0, lambda: None)
        sim.schedule(5e9, lambda: None)  # 5 s of simulated time
        with pytest.raises(WatchdogTrip) as exc:
            run_with(sim, WatchdogConfig(max_time_ms=1.0))
        diagnosis = exc.value.diagnosis
        assert diagnosis.reason == "max_time"
        assert diagnosis.next_event_ns == 5e9
        assert sim.now == 100.0  # never jumped to the bad timestamp
        assert sim.pending == 1  # offending event left queued for forensics

    def test_stall_trips_without_forward_progress(self):
        sim = Simulator()

        def spin():
            sim.schedule(0.0, spin)

        sim.schedule(1.0, spin)
        with pytest.raises(WatchdogTrip) as exc:
            run_with(sim, WatchdogConfig(stall_events=500))
        diagnosis = exc.value.diagnosis
        assert diagnosis.reason == "stall"
        assert diagnosis.now_ns == 1.0

    def test_stall_counter_resets_on_progress(self):
        """Bursts of same-time events below the window never trip."""
        sim = Simulator()

        def burst(t):
            for _ in range(50):
                sim.schedule(0.0, lambda: None)
            if t < 20:
                sim.schedule(1.0, burst, t + 1)

        sim.schedule(0.0, burst, 0)
        run_with(sim, WatchdogConfig(stall_events=60))

    def test_max_wall_trips(self):
        sim = Simulator()

        def sleepy():
            time.sleep(0.005)
            sim.schedule(1.0, sleepy)

        sim.schedule(1.0, sleepy)
        with pytest.raises(WatchdogTrip) as exc:
            run_with(sim, WatchdogConfig(
                max_wall_s=0.02, stall_events=None,
            ))
        assert exc.value.diagnosis.reason == "max_wall"

    def test_trip_is_a_simulation_error(self):
        sim = Simulator()
        sim.schedule(5e9, lambda: None)
        with pytest.raises(SimulationError):
            run_with(sim, WatchdogConfig(max_time_ms=1.0))

    def test_healthy_run_unaffected_by_defaults(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 200:
                sim.schedule(10.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        run_with(sim, WatchdogConfig())
        assert len(fired) == 201


class TestDiagnosis:
    def test_names_pending_owners(self):
        class NamedUnit:
            name = "mem(1, 0)"

            def complete(self):
                pass

        sim = Simulator()
        unit = NamedUnit()
        sim.schedule(10.0, unit.complete)
        sim.schedule(11.0, unit.complete)
        sim.schedule(5e9, lambda: None)
        with pytest.raises(WatchdogTrip) as exc:
            run_with(sim, WatchdogConfig(max_events=1, stall_events=None,
                                         max_time_ms=None))
        diagnosis = exc.value.diagnosis
        assert diagnosis.pending_by_owner["mem(1, 0).complete"] == 1
        assert "mem(1, 0).complete" in diagnosis.format()
        assert "watchdog tripped" in diagnosis.format()

    def test_format_mentions_queue_state(self):
        sim = Simulator()
        sim.schedule(5e9, lambda: None)
        with pytest.raises(WatchdogTrip) as exc:
            run_with(sim, WatchdogConfig(max_time_ms=1.0))
        text = exc.value.diagnosis.format()
        assert "1 queued" in text
        assert "t=0 ns" in text
