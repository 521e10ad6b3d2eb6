"""Property tests pitting the kernel fast path against the seed loop.

Hypothesis builds adversarial schedules — duplicate timestamps,
recyclable posts interleaved with held events, cancel-and-reschedule at
the current tick, zero-delay self-posts — and runs each one on both kernel
modes (``Simulator(fastpath=True)`` vs ``fastpath=False``).  The
observable execution — every callback's (time, tag) in firing order,
the events-fired counter, the final clock — must be identical.

A second property reuses one fast-path simulator across generated
schedules to prove free-listed events never leak state between runs:
the second schedule's trace matches a fresh simulator's bit-for-bit.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import Simulator

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
    """Install one generated schedule on ``sim``; returns the trace list
    the callbacks will append (time, tag) pairs into as they fire.

    ``base`` shifts every timestamp so the same logical schedule can be
    replayed on a simulator that already ran; the trace normalizes the
    times back, keeping a reused run comparable to a fresh one.
    """
    trace = []

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
        t += base
        if kind == "schedule":
            sim.schedule_at(t, fire, f"s{idx}")
        elif kind == "post":
            sim.post_at(t, fire, f"p{idx}")
        elif kind == "cancel_same_tick":
            # The canceller is scheduled first, so it fires first at t
            # and cancels a victim queued for the same timestamp; the
            # reschedule also lands on the current tick.
            def canceller(tag, idx=idx):
                trace.append((sim.now - base, tag))
                victims[idx].cancel()
                sim.schedule_at(sim.now, fire, f"r{idx}")

            sim.schedule_at(t, canceller, f"c{idx}")
            victims[idx] = sim.schedule_at(t, fire, f"v{idx}")
        elif kind == "self_post":
            sim.schedule_at(t, self_poster, f"z{idx}", extra)
    return trace


def run_schedule(ops, fastpath, sim=None, base=0.0):
    """Build and run one schedule; returns its full observable record."""
    if sim is None:
        sim = Simulator(fastpath=fastpath)
    fired_before = sim.events_fired
    trace = build_schedule(ops, sim, base)
    end = sim.run()
    return trace, sim.events_fired - fired_before, end - base


@given(schedules())
@settings(max_examples=200, deadline=None)
def test_fastpath_preserves_observable_order(ops):
    fast = run_schedule(ops, fastpath=True)
    reference = run_schedule(ops, fastpath=False)
    assert fast == reference


@given(schedules())
@settings(max_examples=100, deadline=None)
def test_fastpath_matches_reference_under_watchdog(ops):
    """The watchdog-instrumented fast loop must not change the
    observable execution either."""
    from repro.sim.watchdog import Watchdog, WatchdogConfig

    def run(fastpath):
        sim = Simulator(fastpath=fastpath)
        trace = build_schedule(ops, sim)
        end = sim.run(watchdog=Watchdog(WatchdogConfig()))
        return trace, sim.events_fired, end

    assert run(True) == run(False)


@given(schedules(), schedules())
@settings(max_examples=100, deadline=None)
def test_free_listed_events_never_leak_state(first, second):
    """A reused fast-path simulator (its free-list warm with recycled
    events from an arbitrary first schedule) must execute a second
    schedule exactly like a fresh simulator would."""
    sim = Simulator(fastpath=True)
    run_schedule(first, fastpath=True, sim=sim)
    warm = run_schedule(second, fastpath=True, sim=sim, base=sim.now)
    fresh = run_schedule(second, fastpath=True)
    assert warm == fresh


@given(schedules())
@settings(max_examples=100, deadline=None)
def test_stepping_matches_running(ops):
    """Draining the fast path with step() equals one run() call."""
    expected = run_schedule(ops, fastpath=True)

    sim = Simulator(fastpath=True)
    trace = build_schedule(ops, sim)
    while sim.step():
        pass
    assert (trace, sim.events_fired, sim.now) == expected
