"""Property-based tests for the memory controller."""

from hypothesis import given, settings, strategies as st

from repro.accel.memory import MemoryController
from repro.sim import Simulator

request_lists = st.lists(
    st.tuples(st.floats(0, 1e5), st.integers(0, 8192)),
    min_size=1,
    max_size=40,
)


@given(request_lists)
@settings(max_examples=50, deadline=None)
def test_completions_monotone_in_issue_order(requests):
    """The controller services in order: completions never reorder."""
    mem = MemoryController(Simulator(), "mem")
    completions = [
        mem.request_scatter(1, size, now) for now, size in sorted(requests)
    ]
    assert completions == sorted(completions)


@given(request_lists)
@settings(max_examples=50, deadline=None)
def test_byte_accounting_conserved(requests):
    mem = MemoryController(Simulator(), "mem")
    for now, size in requests:
        mem.request_scatter(1, size, now)
    requested = sum(size for _, size in requests)
    assert mem.stats.get("bytes_requested") == requested
    assert mem.stats.get("bytes_serviced") >= requested
    assert mem.stats.get("bytes_serviced") == (
        requested + mem.stats.get("bytes_wasted")
    )


@given(request_lists)
@settings(max_examples=50, deadline=None)
def test_every_completion_after_latency(requests):
    mem = MemoryController(Simulator(), "mem")
    for now, size in requests:
        completion = mem.request_scatter(1, size, now)
        assert completion >= now + mem.config.latency_ns


@given(st.integers(1, 64), st.integers(1, 512))
def test_scatter_matches_repeated_requests_in_traffic(count, size):
    a = MemoryController(Simulator(), "a")
    a.request_scatter(count, size, now=0.0)
    b = MemoryController(Simulator(), "b")
    for _ in range(count):
        b.request_scatter(1, size, now=0.0)
    assert a.stats.get("bytes_serviced") == b.stats.get("bytes_serviced")
    assert a.stats.get("requests") == b.stats.get("requests")


@given(st.integers(0, 10_000))
def test_alignment_properties(size):
    mem = MemoryController(Simulator(), "mem")
    aligned = mem.aligned_size(size)
    gran = mem.config.access_granularity_bytes
    assert aligned >= max(size, gran)
    assert aligned % gran == 0
    assert aligned - size < gran or size == 0
