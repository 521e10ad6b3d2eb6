"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Simulator, SimulationError


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


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_time_with_empty_queue():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


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


def test_max_events_limits_execution():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_step_executes_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert not sim.step()


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
    with pytest.raises(SimulationError):
        sim.run(watchdog=_RaisingWatchdog())
    fired = []
    sim.schedule(1.0, fired.append, "after")
    sim.run()
    assert fired == ["after"]


class _RaisingWatchdog:
    def before_event(self, sim, event):
        raise SimulationError("budget")


def test_max_events_combined_with_until():
    """Whichever bound is reached first stops the run; the rest of the
    queue survives for a later run() call."""
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    # max_events binds first: three events fire, all below until.
    sim.run(until=8.0, max_events=3)
    assert fired == [0, 1, 2]
    assert sim.now == 2.0
    # until binds first now: events at 3..8 fire, 9.0 stays queued.
    sim.run(until=8.0, max_events=100)
    assert fired == list(range(9))
    assert sim.now == 8.0
    sim.run()
    assert fired == list(range(10))


def test_cancelled_events_counted_until_popped():
    """`pending` includes cancelled events (they stay queued until their
    timestamp); `pending_active` and `pending_by_owner` exclude them."""
    sim = Simulator()
    fired = []
    kept = sim.schedule(2.0, fired.append, "kept")
    cancelled = sim.schedule(1.0, fired.append, "cancelled")
    cancelled.cancel()
    assert sim.pending == 2
    assert sim.pending_active() == 1
    assert sum(sim.pending_by_owner().values()) == 1
    assert not kept.cancelled
    sim.run()
    assert fired == ["kept"]
    assert sim.pending == 0
    assert sim.events_fired == 1


def test_step_skips_cancelled_events():
    sim = Simulator()
    fired = []
    first = sim.schedule(1.0, fired.append, "first")
    sim.schedule(2.0, fired.append, "second")
    first.cancel()
    assert sim.step()
    assert fired == ["second"]
    assert sim.now == 2.0
    assert not sim.step()


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
    suppress the victim in every run-loop flavour.

    The seed run loop popped cancelled events through two separate code
    paths (plain drop vs. the watchdog-guarded branch); the drain is now
    unified in ``Simulator._drop_cancelled``, and this test pins the
    behaviour across both kernel modes, with and without a watchdog.
    """
    from repro.sim.watchdog import Watchdog, WatchdogConfig

    for fastpath in (True, False):
        for with_watchdog in (True, False):
            sim = Simulator(fastpath=fastpath)
            fired = []

            def canceller():
                fired.append("canceller")
                victim.cancel()

            sim.schedule_at(5.0, canceller)
            victim = sim.schedule_at(5.0, lambda: fired.append("victim"))
            sim.schedule_at(5.0, lambda: fired.append("after"))
            watchdog = Watchdog(WatchdogConfig()) if with_watchdog else None
            sim.run(watchdog=watchdog)
            assert fired == ["canceller", "after"], (
                f"fastpath={fastpath} watchdog={with_watchdog}: {fired}"
            )
            assert sim.now == 5.0


def test_profiler_sees_the_callback_that_ran():
    """A recycled event reaches the profiler before its callback is
    cleared or its slot is reused by a post the handler makes."""
    from repro.obs import KernelProfiler
    from repro.sim.kernel import describe_callback

    sim = Simulator(fastpath=True)

    def ping(n):
        if n:
            sim.post(1.0, pong, n - 1)

    def pong(n):
        if n:
            sim.post(1.0, ping, n - 1)

    sim.post(0.0, ping, 10)
    profiler = KernelProfiler(owner_sample_every=1)
    sim.run(profiler=profiler)
    assert profiler.profile().owner_events == {
        describe_callback(ping): 6, describe_callback(pong): 5,
    }
