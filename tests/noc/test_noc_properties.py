"""Property-based tests for both NoC models."""

import math

from hypothesis import given, settings, strategies as st

from repro.noc import (
    AnalyticalNetwork,
    FlitNetwork,
    Mesh,
    NOC_CONFIG,
    Packet,
    PacketNetwork,
    Torus,
)
from repro.noc.backends import backend_names, create_backend
from repro.sim.stats import BusyTracker, StatSet

coords = st.tuples(st.integers(0, 3), st.integers(0, 3))
packet_specs = st.lists(
    st.tuples(coords, coords, st.integers(0, 512)),
    min_size=1,
    max_size=20,
)


@given(packet_specs)
@settings(max_examples=30, deadline=None)
def test_flit_network_conserves_packets(specs):
    """Every injected packet is delivered exactly once; no deadlock."""
    net = FlitNetwork(4, 4)
    packets = [
        Packet(src=src, dst=dst, size_bytes=size) for src, dst, size in specs
    ]
    for pkt in packets:
        net.inject(pkt)
    delivered = net.run(max_cycles=100_000)
    assert sorted(p.pid for p in delivered) == sorted(p.pid for p in packets)
    for pkt in packets:
        assert pkt.delivered_cycle is not None


@given(packet_specs)
@settings(max_examples=30, deadline=None)
def test_flit_latency_at_least_zero_load(specs):
    """No packet beats the zero-load bound: hops * hop_cycles + flits."""
    net = FlitNetwork(4, 4)
    packets = [
        Packet(src=src, dst=dst, size_bytes=size) for src, dst, size in specs
    ]
    for pkt in packets:
        net.inject(pkt)
    net.run(max_cycles=100_000)
    for pkt in packets:
        hops = abs(pkt.dst[0] - pkt.src[0]) + abs(pkt.dst[1] - pkt.src[1])
        flits = NOC_CONFIG.flits_for(pkt.size_bytes)
        zero_load = hops * NOC_CONFIG.hop_cycles + flits
        assert pkt.latency >= zero_load


@given(packet_specs)
@settings(max_examples=30, deadline=None)
def test_packet_model_arrival_after_start(specs):
    net = PacketNetwork(Mesh(4, 4))
    for i, (src, dst, size) in enumerate(specs):
        start = float(i)
        arrival = net.delivery_time(src, dst, size, start)
        assert arrival > start or (src == dst and arrival >= start)


@given(packet_specs)
@settings(max_examples=30, deadline=None)
def test_packet_model_stats_conserve_bytes(specs):
    net = PacketNetwork(Mesh(4, 4))
    for src, dst, size in specs:
        net.delivery_time(src, dst, size, 0.0)
    assert net.stats.get("packets") == len(specs)
    assert net.stats.get("bytes") == sum(size for _, _, size in specs)


@given(
    coords, coords,
    st.integers(0, 2048),
    st.floats(0, 1e4),
)
def test_packet_model_monotone_in_size(src, dst, size, start):
    """A bigger payload never arrives earlier on a fresh network."""
    small = PacketNetwork(Mesh(4, 4)).delivery_time(src, dst, size, start)
    large = PacketNetwork(Mesh(4, 4)).delivery_time(
        src, dst, size + 64, start
    )
    assert large >= small


@st.composite
def injection_sequences(draw):
    """A mesh up to 8x8 and a message sequence with non-decreasing start
    times: equal, fractional and large steps."""
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    node = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    step = st.one_of(st.just(0.0), st.floats(0, 50), st.floats(0, 1e9))
    messages = draw(st.lists(
        st.tuples(node, node, st.integers(0, 4096), step),
        min_size=1, max_size=60,
    ))
    return Mesh(width, height), messages


@given(injection_sequences())
@settings(max_examples=100, deadline=None)
def test_analytical_delivery_never_later_than_packet(case):
    """Fed one injection sequence, the zero-contention model delivers no
    message later than the packet model, within rounding.

    Exact ``<=`` does not hold: the analytical model multiplies the hop
    time (``start + hops * hop + tail``) while the packet model adds it
    hop by hop, so the two sums round differently, by up to one rounding
    per addition: ``hops + 2`` ulps of the packet time.
    """
    mesh, messages = case
    packet, analytical = PacketNetwork(mesh), AnalyticalNetwork(mesh)
    start = 0.0
    for src, dst, size, step in messages:
        start += step
        contended = packet.delivery_time(src, dst, size, start)
        zero_load = analytical.delivery_time(src, dst, size, start)
        hops = len(mesh.route_links(src, dst))
        assert zero_load <= contended + (hops + 2) * math.ulp(contended)


class ReferencePacketNetwork:
    """The packet model computed hop by hop with no memo: the loop
    version the memoized one must match exactly."""

    def __init__(self, mesh, config=NOC_CONFIG):
        self.mesh, self.config = mesh, config
        self.links, self.stats = {}, StatSet()

    def delivery_time(self, src, dst, size_bytes, start_ns):
        self.mesh.validate_node(src)
        self.mesh.validate_node(dst)
        cycle = self.config.cycle_ns
        flits = self.config.flits_for(size_bytes)
        links = self.mesh.route_links(src, dst)
        self.stats.add("packets")
        self.stats.add("flits", flits)
        self.stats.add("bytes", max(size_bytes, 0))
        self.stats.add("flit_hops", flits * len(links))
        if src == dst:
            return start_ns + self.config.routing_delay_cycles * cycle
        head = start_ns
        for link in links:
            tracker = self.links.setdefault(link, BusyTracker())
            granted_start, _ = tracker.occupy(head, flits * cycle)
            head = granted_start + self.config.hop_cycles * cycle
        return head + (flits - 1) * cycle

    def reserve_link(self, src, dst, start_ns, duration_ns):
        tracker = self.links.setdefault((src, dst), BusyTracker())
        tracker.occupy(start_ns, duration_ns)


@st.composite
def traffic(draw):
    """A 4x4 mesh or torus and a message sequence with a few blackouts
    of real links mixed in (the same shapes recur, as in a simulation)."""
    mesh = draw(st.sampled_from([Mesh(4, 4), Torus(4, 4)]))
    links = [(a, b) for a in mesh.nodes() for b in mesh.neighbors(a)]
    send = st.tuples(st.just("send"), coords, coords,
                     st.sampled_from([0, 1, 64, 200, 512]),
                     st.floats(0, 2e3))
    fault = st.tuples(st.just("fault"), st.sampled_from(links),
                      st.floats(0, 2e3), st.floats(0, 500))
    ops = draw(st.lists(st.one_of(send, send, send, fault), max_size=40))
    return mesh, ops


@given(traffic(), st.floats(1, 1e4))
@settings(max_examples=60, deadline=None)
def test_memoized_packet_model_matches_the_per_hop_reference(case, elapsed):
    mesh, ops = case
    fast, reference = PacketNetwork(mesh), ReferencePacketNetwork(mesh)
    for op in ops:
        if op[0] == "send":
            _, src, dst, size, start = op
            assert fast.delivery_time(src, dst, size, start) == \
                reference.delivery_time(src, dst, size, start)
        else:
            _, (src, dst), start, duration = op
            fast.reserve_link(src, dst, start, duration)
            reference.reserve_link(src, dst, start, duration)
    assert fast.stats.as_dict() == reference.stats.as_dict()
    assert fast.links_used == len(reference.links)
    assert fast.link_utilization(elapsed) == {
        link: tracker.utilization(elapsed)
        for link, tracker in reference.links.items()
    }


@given(
    st.sampled_from(backend_names()),
    st.sampled_from([Mesh(4, 4), Torus(4, 4)]),
    st.lists(st.tuples(
        st.sampled_from(["send", "send", "send", "fault"]),
        st.tuples(st.integers(0, 4), st.integers(0, 3)), coords,
        st.sampled_from([0, 1, 64, 200, 512]), st.floats(0, 50),
        st.sampled_from(["packets", "flits", "bytes", "flit_hops",
                         "injected_faults"]),
    ), max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_derived_counters_equal_per_call_accumulation(name, mesh, ops):
    """Every backend's traffic counters, derived from per-shape message
    tallies, equal the per-message accumulation, key set included; reads
    and ``add("injected_faults")`` in between change nothing, and a call
    rejected for an out-of-mesh node counts nothing."""
    net = create_backend(name, mesh, NOC_CONFIG)
    reference: dict[str, float] = {}

    def account(counter, amount=1.0):
        reference[counter] = reference.get(counter, 0.0) + amount

    snapshots = []
    start = 0.0
    for op, src, dst, size, step, probe in ops:
        if op == "fault":
            net.stats.add("injected_faults")
            account("injected_faults")
        elif mesh.contains(src):
            start += step
            net.delivery_time(src, dst, size, start)
            flits = NOC_CONFIG.flits_for(size)
            account("packets")
            account("flits", flits)
            account("bytes", size)
            account("flit_hops", flits * len(mesh.route_links(src, dst)))
        else:
            try:
                net.delivery_time(src, dst, size, start)
            except ValueError:
                pass
            else:
                raise AssertionError(f"{src} is not a node of {mesh}")
        counters = net.stats.as_dict()
        assert counters == reference
        assert all(type(value) is float for value in counters.values())
        assert net.stats.get(probe) == reference.get(probe, 0.0)
        assert (probe in net.stats) == (probe in reference)
        snapshots.append((counters, dict(reference)))
    for taken, expected in snapshots:
        assert taken == expected
