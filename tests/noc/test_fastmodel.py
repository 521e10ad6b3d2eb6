"""Tests for the packet-level contention model."""

import numpy as np
import pytest

from repro.noc import Mesh, NocConfig, PacketNetwork
from repro.noc.fastmodel import PacketNetwork as _PN


@pytest.fixture
def net():
    return PacketNetwork(Mesh(4, 4))


class TestZeroLoad:
    def test_single_hop_single_flit(self, net):
        # hops * hop_cycles + (flits-1) cycles, 1 GHz -> ns == cycles.
        arrival = net.delivery_time((0, 0), (1, 0), 64, start_ns=0.0)
        assert arrival == pytest.approx(2.0)

    def test_multi_hop(self, net):
        arrival = net.delivery_time((0, 0), (3, 3), 64, start_ns=0.0)
        assert arrival == pytest.approx(6 * 2.0)

    def test_serialization(self, net):
        arrival = net.delivery_time((0, 0), (1, 0), 256, start_ns=0.0)
        assert arrival == pytest.approx(2.0 + 3.0)

    def test_local_delivery_is_crossbar_only(self, net):
        arrival = net.delivery_time((1, 1), (1, 1), 64, start_ns=5.0)
        assert arrival == pytest.approx(6.0)

    def test_start_time_offsets_result(self, net):
        # The first packet drains long before t=100, so the second sees an
        # idle network and the offset is exactly the start time.
        a = net.delivery_time((0, 0), (2, 0), 64, start_ns=0.0)
        b = net.delivery_time((0, 0), (2, 0), 64, start_ns=100.0)
        assert b == pytest.approx(a + 100.0)


class TestContention:
    def test_back_to_back_packets_queue(self):
        net = PacketNetwork(Mesh(2, 1))
        first = net.delivery_time((0, 0), (1, 0), 256, start_ns=0.0)
        second = net.delivery_time((0, 0), (1, 0), 256, start_ns=0.0)
        assert second == pytest.approx(first + 4.0)  # 4 flits serialization

    def test_disjoint_paths_do_not_interact(self):
        net = PacketNetwork(Mesh(2, 2))
        a = net.delivery_time((0, 0), (1, 0), 256, start_ns=0.0)
        b = net.delivery_time((0, 1), (1, 1), 256, start_ns=0.0)
        assert a == pytest.approx(b)

    def test_crossing_packets_share_link(self):
        net = PacketNetwork(Mesh(3, 1))
        # Both packets use link (1,0)->(2,0).
        net.delivery_time((0, 0), (2, 0), 640, start_ns=0.0)
        arrival = net.delivery_time((1, 0), (2, 0), 64, start_ns=0.0)
        solo = PacketNetwork(Mesh(3, 1)).delivery_time(
            (1, 0), (2, 0), 64, start_ns=0.0
        )
        assert arrival > solo


class TestAgainstFlitLevel:
    """The fast model must track the flit-level model at zero load."""

    @pytest.mark.parametrize("size", [64, 128, 512])
    @pytest.mark.parametrize("dst", [(1, 0), (3, 0), (3, 3)])
    def test_zero_load_latency_matches(self, size, dst):
        from repro.noc import FlitNetwork, Packet

        fast = PacketNetwork(Mesh(4, 4))
        fast_latency = fast.delivery_time((0, 0), dst, size, 0.0)

        flit_net = FlitNetwork(4, 4)
        pkt = Packet(src=(0, 0), dst=dst, size_bytes=size)
        flit_net.inject(pkt)
        flit_net.run()
        # The flit model charges injection (1 cycle) and local ejection
        # switching (1 cycle) that the fast model folds away; allow that
        # constant.
        assert abs(pkt.latency - fast_latency) <= 2.0


class TestFidelityAblation:
    """DESIGN.md sections 2 and 5: one timed trace through both models.

    At the moderate loads the accelerator's memory system produces, the
    packet model tracks the flit model's mean latency for an order of
    magnitude less simulated work: the flit model steps every router
    every cycle, the packet model reserves each link of a route once per
    packet.  (Under saturating loads the packet model is optimistic: it
    ignores buffer backpressure, which is why the flit model exists.)
    """

    SPACING_CYCLES = 10

    def trace(self, num_packets=200, seed=7):
        rng = np.random.default_rng(seed)
        nodes = Mesh(4, 4).nodes()
        trace = []
        for i in range(num_packets):
            src, dst = rng.choice(len(nodes), size=2, replace=False)
            size = int(rng.choice([64, 128, 256, 512]))
            trace.append(
                (nodes[src], nodes[dst], size, i * self.SPACING_CYCLES)
            )
        return trace

    def test_tracks_the_flit_model_for_a_tenth_of_the_work(self):
        from repro.noc import FlitNetwork, Packet

        trace = self.trace()
        flit_net = FlitNetwork(4, 4, NocConfig())  # 1 GHz: cycles == ns
        packets = []
        for src, dst, size, start in trace:
            while flit_net.cycle < start:
                flit_net.step()
            packets.append(Packet(src=src, dst=dst, size_bytes=size))
            flit_net.inject(packets[-1])
        flit_net.run()
        flit_mean = float(np.mean([p.latency for p in packets]))
        router_cycles = flit_net.cycle * len(flit_net.routers)

        fast = PacketNetwork(Mesh(4, 4), NocConfig())
        packet_mean = float(np.mean([
            fast.delivery_time(src, dst, size, start) - start
            for src, dst, size, start in trace
        ]))
        reservations = sum(
            len(fast.mesh.route_links(src, dst)) for src, dst, _, _ in trace
        )
        ratio = packet_mean / flit_mean
        print(
            f"\nNoC fidelity ablation (200 packets, 4x4 mesh, 1 packet per "
            f"{self.SPACING_CYCLES} cycles): flit mean latency "
            f"{flit_mean:.1f} cycles over {router_cycles} router-cycles; "
            f"packet model {packet_mean:.1f} cycles over {reservations} "
            f"link reservations ({ratio:.2f}x latency ratio)"
        )
        # It folds away the constant injection and ejection cycles, so it
        # sits slightly below 1.0.
        assert 0.4 <= ratio <= 1.2
        assert 10 * reservations <= router_cycles


class TestReporting:
    def test_stats_counters(self, net):
        net.delivery_time((0, 0), (1, 0), 200, start_ns=0.0)
        assert net.stats.get("packets") == 1
        assert net.stats.get("flits") == 4
        assert net.stats.get("bytes") == 200

    def test_links_used(self, net):
        net.delivery_time((0, 0), (2, 0), 64, start_ns=0.0)
        assert net.links_used == 2

    def test_utilization_bounded(self, net):
        net.delivery_time((0, 0), (3, 0), 640, start_ns=0.0)
        util = net.max_link_utilization(elapsed_ns=100.0)
        assert 0 < util <= 1.0

    def test_empty_network_utilization_zero(self, net):
        assert net.max_link_utilization(10.0) == 0.0

    def test_invalid_node_rejected(self, net):
        with pytest.raises(ValueError):
            net.delivery_time((0, 0), (9, 9), 64, 0.0)
