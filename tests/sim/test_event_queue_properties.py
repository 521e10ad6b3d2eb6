"""Property tests of the kernel's event ordering.

Hypothesis builds adversarial schedules — duplicate timestamps,
recyclable posts interleaved with held events, cancel-and-reschedule at
the current tick, zero-delay self-posts — and checks what every run must
satisfy: fire times never decrease, events queued for one tick fire in
scheduling order, a cancelled event never fires while its reschedule
does, and the watchdog budgets never change the execution.

A second property reuses one simulator across generated schedules to
prove free-listed events never leak state between runs: the second
schedule's trace matches a fresh simulator's bit-for-bit.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import Simulator
from repro.sim.watchdog import WatchdogConfig

#: Coarse time grid so generated schedules collide on timestamps often —
#: duplicate-time ordering is exactly what event recycling risks.
times = st.integers(0, 12).map(lambda k: k * 0.5)


@st.composite
def schedules(draw):
    """A list of scheduling instructions with adversarial shapes."""
    n = draw(st.integers(min_value=1, max_value=14))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["schedule", "post", "cancel_same_tick", "self_post"]
        ))
        ops.append((kind, draw(times), draw(st.integers(1, 3))))
    return ops


def build_schedule(ops, sim, base=0.0):
    """Install one generated schedule on ``sim``.

    Returns ``(trace, queued)``: the list the callbacks append
    ``(time, tag)`` pairs to as they fire, and the ``(time, tag)`` of
    every event queued here, in scheduling order.  ``base`` shifts every
    timestamp so the same logical schedule can be replayed on a
    simulator that already ran; the trace normalizes the times back,
    keeping a reused run comparable to a fresh one.
    """
    trace = []
    queued = []

    def fire(tag):
        trace.append((sim.now - base, tag))

    def self_poster(tag, remaining):
        trace.append((sim.now - base, tag))
        if remaining:
            # Zero-delay self-post: fires at the *current* tick, after
            # everything already queued for it.
            sim.post_at(sim.now, self_poster, tag + "+", remaining - 1)

    victims = {}
    for idx, (kind, t, extra) in enumerate(ops):
        if kind == "schedule":
            sim.schedule_at(t + base, fire, f"s{idx}")
            queued.append((t, f"s{idx}"))
        elif kind == "post":
            sim.post_at(t + base, fire, f"p{idx}")
            queued.append((t, f"p{idx}"))
        elif kind == "cancel_same_tick":
            # The canceller is scheduled first, so it fires first at t
            # and cancels a victim queued for the same timestamp; the
            # reschedule also lands on the current tick.
            def canceller(tag, idx=idx):
                trace.append((sim.now - base, tag))
                victims[idx].cancel()
                sim.schedule_at(sim.now, fire, f"r{idx}")

            sim.schedule_at(t + base, canceller, f"c{idx}")
            victims[idx] = sim.schedule_at(t + base, fire, f"v{idx}")
            queued += [(t, f"c{idx}"), (t, f"v{idx}")]
        elif kind == "self_post":
            sim.schedule_at(t + base, self_poster, f"z{idx}", extra)
            queued.append((t, f"z{idx}"))
    return trace, queued


def run_schedule(ops, sim=None, base=0.0, watchdog=None):
    """Build and run one schedule; returns its full observable record."""
    if sim is None:
        sim = Simulator()
    fired_before = sim.events_fired
    trace, _ = build_schedule(ops, sim, base)
    end = sim.run(watchdog=watchdog)
    return trace, sim.events_fired - fired_before, end - base


@given(schedules())
@settings(max_examples=200, deadline=None)
def test_run_honours_the_ordering_contract(ops):
    sim = Simulator()
    trace, queued = build_schedule(ops, sim)
    sim.run()
    fired = [tag for _, tag in trace]
    cancels = [idx for idx, (kind, _, _) in enumerate(ops)
               if kind == "cancel_same_tick"]
    victims = {f"v{idx}" for idx in cancels}

    fire_times = [t for t, _ in trace]
    assert fire_times == sorted(fire_times)

    # Events queued before the run fire by time, ties in scheduling order.
    queued_tags = {tag for _, tag in queued}
    expected = [tag for _, tag in sorted(queued, key=lambda item: item[0])
                if tag not in victims]
    assert [tag for tag in fired if tag in queued_tags] == expected

    for idx in cancels:
        assert f"v{idx}" not in fired
        assert fired.count(f"r{idx}") == 1

    assert sim.events_fired == len(trace)


@given(schedules())
@settings(max_examples=100, deadline=None)
def test_watchdog_budgets_leave_the_execution_unchanged(ops):
    assert (run_schedule(ops, watchdog=WatchdogConfig())
            == run_schedule(ops, watchdog=None))


@given(schedules(), schedules())
@settings(max_examples=100, deadline=None)
def test_free_listed_events_never_leak_state(first, second):
    """A reused simulator (its free-list warm with recycled events from
    an arbitrary first schedule) must execute a second schedule exactly
    like a fresh simulator would."""
    sim = Simulator()
    run_schedule(first, sim=sim)
    warm = run_schedule(second, sim=sim, base=sim.now)
    fresh = run_schedule(second)
    assert warm == fresh
