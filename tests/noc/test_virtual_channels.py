"""Tests for virtual-channel support in the flit-level router."""

import pytest

from repro.eval.report import format_table
from repro.noc import FlitNetwork, NocConfig, Packet
from repro.noc.traffic import run_load_point, uniform_random


class TestConfiguration:
    def test_default_is_single_vc(self):
        assert NocConfig().num_vcs == 1

    def test_zero_vcs_rejected(self):
        with pytest.raises(ValueError):
            NocConfig(num_vcs=0)


class TestZeroLoadEquivalence:
    """At zero load VCs must not change timing at all."""

    @pytest.mark.parametrize("vcs", [1, 2, 4])
    @pytest.mark.parametrize("size", [64, 256])
    def test_single_packet_latency_independent_of_vcs(self, vcs, size):
        net = FlitNetwork(4, 4, NocConfig(num_vcs=vcs))
        pkt = Packet(src=(0, 0), dst=(3, 2), size_bytes=size)
        net.inject(pkt)
        net.run()
        reference = FlitNetwork(4, 4, NocConfig(num_vcs=1))
        ref_pkt = Packet(src=(0, 0), dst=(3, 2), size_bytes=size)
        reference.inject(ref_pkt)
        reference.run()
        assert pkt.latency == ref_pkt.latency


class TestConservation:
    @pytest.mark.parametrize("vcs", [2, 4])
    def test_all_packets_delivered(self, vcs):
        net = FlitNetwork(4, 4, NocConfig(num_vcs=vcs))
        packets = []
        nodes = net.mesh.nodes()
        for i, src in enumerate(nodes):
            dst = nodes[(i + 7) % len(nodes)]
            pkt = Packet(src=src, dst=dst, size_bytes=256)
            packets.append(pkt)
            net.inject(pkt)
        delivered = net.run(max_cycles=50_000)
        assert len(delivered) == len(packets)

    def test_lanes_ignore_packets_built_elsewhere(self):
        # Packet ids come from a process-wide counter; injection lanes
        # must not, or a run's latency would depend on what ran before.
        def run():
            return run_load_point(
                4, 4, uniform_random, 0.35, config=NocConfig(num_vcs=4),
                warmup_cycles=100, measure_cycles=400,
            )["mean_latency"]

        first = run()
        Packet(src=(0, 0), dst=(1, 1), size_bytes=64)
        assert run() == first


class TestHeadOfLineBlocking:
    """The reason VCs exist: under load, one stalled packet must not
    freeze unrelated traffic sharing its input port.  Table IV gives one
    4-flit buffer per port; adding VC lanes is this reproduction's
    virtual-channel ablation."""

    LOADS = (0.1, 0.25, 0.35)

    @pytest.fixture(scope="class")
    def latency(self):
        """Mean latency in cycles by VC count, then uniform-random load."""
        return {
            vcs: {
                rate: run_load_point(
                    4, 4, uniform_random, rate,
                    config=NocConfig(num_vcs=vcs),
                    warmup_cycles=100, measure_cycles=400,
                )["mean_latency"]
                for rate in self.LOADS
            }
            for vcs in (1, 2, 4)
        }

    def test_two_vcs_cut_high_load_latency(self, latency):
        assert latency[2][0.35] < 0.5 * latency[1][0.35]

    def test_more_vcs_never_hurt(self, latency):
        assert latency[4][0.35] <= latency[2][0.35] * 1.1

    def test_moderate_load_untouched(self, latency):
        print()
        print(format_table(
            ["Channels"] + [f"load {rate}" for rate in self.LOADS],
            [[f"{vcs} VC"] + list(row.values())
             for vcs, row in latency.items()],
            title="Mean packet latency (cycles), uniform random on 4x4",
        ))
        assert latency[4][0.1] < 1.1 * latency[1][0.1]

    def test_low_load_unaffected(self):
        single = run_load_point(
            4, 4, uniform_random, 0.05, config=NocConfig(num_vcs=1),
            warmup_cycles=100, measure_cycles=300,
        )
        quad = run_load_point(
            4, 4, uniform_random, 0.05, config=NocConfig(num_vcs=4),
            warmup_cycles=100, measure_cycles=300,
        )
        assert quad["mean_latency"] == pytest.approx(
            single["mean_latency"], rel=0.1
        )
