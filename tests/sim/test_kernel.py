"""Tests for the discrete-event simulation kernel."""

import sys
import time

import pytest

from repro.sim import SimulationError, Simulator, WatchdogConfig, WatchdogTrip
from repro.sim.kernel import describe_callback


def test_empty_run_returns_zero_time():
    sim = Simulator()
    assert sim.run() == 0.0
    assert sim.events_fired == 0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(9.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(3.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_events_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    event.cancel()
    sim.run()
    assert fired == ["kept"]


def test_reentrant_run_rejected():
    sim = Simulator()

    def nested():
        sim.run()

    sim.schedule(1.0, nested)
    with pytest.raises(SimulationError):
        sim.run()


def test_run_usable_again_after_watchdog_raise():
    """An aborted run must not leave the kernel marked as running."""
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    with pytest.raises(WatchdogTrip):
        sim.run(watchdog=WatchdogConfig(max_events=1))
    fired = []
    sim.schedule(1.0, fired.append, "after")
    sim.run()
    assert fired == ["after"]


def test_cancelled_events_counted_until_popped():
    """`pending` includes cancelled events (they stay queued until their
    timestamp); `pending_by_owner` excludes them."""
    sim = Simulator()
    fired = []
    kept = sim.schedule(2.0, fired.append, "kept")
    cancelled = sim.schedule(1.0, fired.append, "cancelled")
    cancelled.cancel()
    assert sim.pending == 2
    assert sum(sim.pending_by_owner().values()) == 1
    assert not kept.cancelled
    sim.run()
    assert fired == ["kept"]
    assert sim.pending == 0
    assert sim.events_fired == 1


def test_pending_by_owner_names_bound_methods():
    class NamedUnit:
        name = "tile(0, 0).gpe"

        def tick(self):
            pass

    sim = Simulator()
    unit = NamedUnit()
    sim.schedule(1.0, unit.tick)
    sim.schedule(2.0, unit.tick)
    sim.schedule(3.0, lambda: None)
    counts = sim.pending_by_owner()
    assert counts["tile(0, 0).gpe.tick"] == 2
    assert sum(counts.values()) == 3


def test_cancel_at_current_timestamp_honoured_before_dispatch():
    """Regression: a cancel issued by a same-timestamp predecessor must
    suppress the victim, with and without watchdog budgets.

    The seed run loop popped cancelled events through two separate code
    paths (plain drop vs. the watchdog-guarded branch); the one loop
    drops them before any dispatch or budget accounting.
    """
    for watchdog in (WatchdogConfig(), None):
        sim = Simulator()
        fired = []

        def canceller():
            fired.append("canceller")
            victim.cancel()

        sim.schedule_at(5.0, canceller)
        victim = sim.schedule_at(5.0, lambda: fired.append("victim"))
        sim.schedule_at(5.0, lambda: fired.append("after"))
        sim.run(watchdog=watchdog)
        assert fired == ["canceller", "after"], f"{watchdog}: {fired}"
        assert sim.now == 5.0


def test_profiler_sees_the_callback_that_ran():
    """The sampler attributes wall time to the handler the loop is
    running: a handler sleeping 20 ms, posted 10 times between no-op
    handlers, takes nearly every sample."""
    from repro.obs import KernelProfiler

    sim = Simulator()

    def noop():
        pass

    def sleeper():
        time.sleep(0.02)

    for tick in range(10):
        for _ in range(5):
            sim.post(float(tick), noop)
        sim.post(float(tick), sleeper)
    profiler = KernelProfiler()
    sim.run(profiler=profiler)
    profile = profiler.profile()
    assert profile.events == 60
    assert profile.samples > 0
    sleeping = profile.owner_samples.get(describe_callback(sleeper), 0)
    assert sleeping >= 0.9 * profile.samples, profile


def test_profiler_samples_stay_consistent_under_rapid_switching():
    """With the interpreter switching threads every microsecond, every
    sample still lands on the kernel or on a handler the loop ran."""
    from repro.obs import KernelProfiler

    sim = Simulator()

    def spin():
        sum(range(200))

    for i in range(20_000):
        sim.post(float(i), spin)
    profiler = KernelProfiler()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sim.run(profiler=profiler)
    finally:
        sys.setswitchinterval(interval)
    profile = profiler.profile()
    assert profile.events == 20_000
    assert profile.samples > 0
    assert set(profile.owner_samples) <= {describe_callback(spin)}
    assert (profile.kernel_samples + sum(profile.owner_samples.values())
            == profile.samples == sum(profile.queue_depth_hist.values()))
