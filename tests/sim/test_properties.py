"""Property-based tests for the simulation kernel and busy-trackers."""

from hypothesis import given, strategies as st

from repro.sim import BusyTracker, Simulator


@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50))
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.post_at(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50))
def test_final_time_is_latest_event(delays):
    sim = Simulator()
    for delay in delays:
        sim.post_at(delay, lambda: None)
    assert sim.run() == max(delays)


@given(
    st.lists(
        st.tuples(st.floats(0, 1e5), st.floats(0, 1e3)),
        min_size=1,
        max_size=60,
    )
)
def test_busy_tracker_invariants(requests):
    """Busy time equals the sum of durations; grants never overlap; the
    grant order matches the request (call) order."""
    tracker = BusyTracker()
    grants = []
    for now, duration in requests:
        grants.append(tracker.occupy(now, duration))
    assert tracker.busy_time == sum(d for _, d in requests)
    for (s1, f1), (s2, f2) in zip(grants, grants[1:]):
        assert f1 <= s2 or (f1 == s2)  # FIFO, no overlap
        assert s2 >= f1 - 1e-9
    for (now, duration), (start, finish) in zip(requests, grants):
        assert start >= now
        assert finish == start + duration


@given(
    st.lists(st.floats(0, 1e5), min_size=1, max_size=40),
    st.floats(1, 1e6),
)
def test_busy_tracker_utilization_bounded(durations, elapsed):
    tracker = BusyTracker()
    for duration in durations:
        tracker.occupy(0.0, duration)
    assert 0.0 <= tracker.utilization(elapsed) <= 1.0
