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
    sim.post_at(5.0, fired.append, "b")
    sim.post_at(1.0, fired.append, "a")
    sim.post_at(9.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.post_at(3.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_events_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.post_at(sim.now + 1.0, chain, n + 1)

    sim.post_at(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.post_at(sim.now - 1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.post_at(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post_at(5.0, lambda: None)


def test_nan_time_rejected():
    # A NaN time compares false with everything, so only a guard written
    # as ``not time >= now`` catches it; the event would otherwise fire
    # with ``sim.now == nan``.
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.post_at(float("nan"), lambda: None)
    assert sim.pending == 0


def test_reentrant_run_rejected():
    sim = Simulator()

    def nested():
        sim.run()

    sim.post_at(1.0, nested)
    with pytest.raises(SimulationError):
        sim.run()


def test_run_usable_again_after_watchdog_raise():
    """An aborted run must not leave the kernel marked as running."""
    sim = Simulator()
    sim.post_at(1.0, lambda: None)
    sim.post_at(2.0, lambda: None)
    with pytest.raises(WatchdogTrip):
        sim.run(watchdog=WatchdogConfig(max_events=1))
    fired = []
    sim.post_at(sim.now + 1.0, fired.append, "after")
    sim.run()
    assert fired == ["after"]


def test_pending_by_owner_names_bound_methods():
    class NamedUnit:
        name = "tile(0, 0).gpe"

        def tick(self):
            pass

    sim = Simulator()
    unit = NamedUnit()
    sim.post_at(1.0, unit.tick)
    sim.post_at(2.0, unit.tick)
    sim.post_at(3.0, lambda: None)
    counts = sim.pending_by_owner()
    assert counts["tile(0, 0).gpe.tick"] == 2
    assert sum(counts.values()) == 3 == sim.pending


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
            sim.post_at(float(tick), noop)
        sim.post_at(float(tick), sleeper)
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
        sim.post_at(float(i), spin)
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


def test_profiler_knows_the_dispatch_and_hook_lines_of_the_loop():
    """The sampler reads only the loop frame's line, so the lines it
    looks up in the loop's bytecode must be the loop's own source lines."""
    import inspect

    from repro.obs import profiler

    source, first = inspect.getsourcelines(Simulator.run)
    text = {first + i: line.strip() for i, line in enumerate(source)}
    assert text[profiler._DISPATCH_LINE] == "callback(*args)"
    assert sorted(text[line] for line in profiler._HOOK_LINES) == [
        "profiler.start(self, sys._getframe())", "profiler.stop()",
    ]
