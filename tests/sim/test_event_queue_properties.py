"""Property tests of the kernel's event ordering.

Hypothesis builds adversarial schedules — duplicate timestamps, handlers
that post a follow-up at the current tick, zero-delay self-posts — and
checks what every run must satisfy: fire times never decrease, events
queued for one tick fire in scheduling order, every follow-up fires
exactly once, and the watchdog budgets never change the execution.

A second property reuses one simulator across generated schedules to
prove a run leaves no state behind that changes the next one: the second
schedule's trace matches a fresh simulator's bit-for-bit.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import Simulator
from repro.sim.watchdog import WatchdogConfig

#: Coarse time grid so generated schedules collide on timestamps often —
#: duplicate-time ordering is exactly what the ``seq`` tie-breaker decides.
times = st.integers(0, 12).map(lambda k: k * 0.5)


@st.composite
def schedules(draw):
    """A list of scheduling instructions with adversarial shapes."""
    n = draw(st.integers(min_value=1, max_value=14))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["post", "follow_up", "self_post"]))
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

    def follower(tag, idx):
        # Posts its follow-up for the current tick, behind a sibling
        # queued for the same timestamp.
        trace.append((sim.now - base, tag))
        sim.post_at(sim.now, fire, f"r{idx}")

    for idx, (kind, t, extra) in enumerate(ops):
        if kind == "post":
            sim.post_at(t + base, fire, f"p{idx}")
            queued.append((t, f"p{idx}"))
        elif kind == "follow_up":
            sim.post_at(t + base, follower, f"c{idx}", idx)
            sim.post_at(t + base, fire, f"v{idx}")
            queued += [(t, f"c{idx}"), (t, f"v{idx}")]
        elif kind == "self_post":
            sim.post_at(t + base, self_poster, f"z{idx}", extra)
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

    fire_times = [t for t, _ in trace]
    assert fire_times == sorted(fire_times)

    # Events queued before the run fire by time, ties in scheduling order.
    queued_tags = {tag for _, tag in queued}
    expected = [tag for _, tag in sorted(queued, key=lambda item: item[0])]
    assert [tag for tag in fired if tag in queued_tags] == expected

    # A follow-up fires once, at its poster's tick, after the sibling
    # that was already queued for that tick.
    for idx, (kind, t, _) in enumerate(ops):
        if kind == "follow_up":
            assert fired.count(f"r{idx}") == 1
            assert (t, f"r{idx}") in trace
            assert fired.index(f"v{idx}") < fired.index(f"r{idx}")

    assert sim.events_fired == len(trace)
    assert sim.pending == 0


@given(schedules())
@settings(max_examples=100, deadline=None)
def test_watchdog_budgets_leave_the_execution_unchanged(ops):
    assert (run_schedule(ops, watchdog=WatchdogConfig())
            == run_schedule(ops, watchdog=None))


@given(schedules(), schedules())
@settings(max_examples=100, deadline=None)
def test_a_reused_simulator_runs_like_a_fresh_one(first, second):
    """A simulator that already ran an arbitrary first schedule must
    execute a second schedule exactly like a fresh simulator would."""
    sim = Simulator()
    run_schedule(first, sim=sim)
    warm = run_schedule(second, sim=sim, base=sim.now)
    fresh = run_schedule(second)
    assert warm == fresh
