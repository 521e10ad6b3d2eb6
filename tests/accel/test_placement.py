"""Tests for vertex placement policies."""

import pytest

from repro.accel import (
    Accelerator,
    GPU_ISO_BW,
    RangePlacement,
    RoundRobinPlacement,
)


class TestRoundRobin:
    def test_modulo_mapping(self):
        placement = RoundRobinPlacement(num_tiles=4, num_memories=2)
        assert [placement.tile_index(v) for v in range(6)] == [
            0, 1, 2, 3, 0, 1,
        ]
        assert [placement.memory_index(v) for v in range(4)] == [0, 1, 0, 1]

    def test_memory_offset_rotates(self):
        placement = RoundRobinPlacement(
            num_tiles=4, num_memories=4, memory_offset=1
        )
        assert placement.memory_index(0) == 1
        assert placement.memory_index(3) == 0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinPlacement(num_tiles=0, num_memories=1)


class TestRange:
    def test_contiguous_blocks(self):
        placement = RangePlacement(
            num_vertices=10, num_tiles=2, num_memories=2
        )
        assert [placement.tile_index(v) for v in range(10)] == [
            0, 0, 0, 0, 0, 1, 1, 1, 1, 1,
        ]

    def test_uneven_blocks_clamp_to_last_tile(self):
        placement = RangePlacement(
            num_vertices=10, num_tiles=3, num_memories=3
        )
        assert placement.tile_index(9) == 2
        assert max(placement.tile_index(v) for v in range(10)) == 2

    def test_memory_follows_tile(self):
        placement = RangePlacement(
            num_vertices=8, num_tiles=4, num_memories=2
        )
        for v in range(8):
            assert placement.memory_index(v) == placement.tile_index(v) % 2

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            RangePlacement(num_vertices=0, num_tiles=1, num_memories=1)


class TestAcceleratorIntegration:
    def test_default_is_aligned_round_robin(self):
        accel = Accelerator(GPU_ISO_BW)
        assert isinstance(accel.placement, RoundRobinPlacement)
        assert accel.placement.memory_offset == 0
        assert accel.tile_of(9) is accel.tiles[1]
        _, coord = accel.memory_of(9)
        assert coord == GPU_ISO_BW.memory_coords[1]

    def test_custom_placement_respected(self):
        placement = RoundRobinPlacement(
            num_tiles=8, num_memories=8, memory_offset=3
        )
        accel = Accelerator(GPU_ISO_BW, placement=placement)
        _, coord = accel.memory_of(0)
        assert coord == GPU_ISO_BW.memory_coords[3]


@pytest.mark.slow
class TestPlacementAblation:
    """GCN Pubmed on the 8-tile GPU iso-BW mesh under three placements:
    aligned round-robin (the default, every vertex's data on the memory
    node next to its owner tile), round-robin with the memory mapping
    rotated by half the mesh (every feature stream crosses it), and
    contiguous range blocks (edge imbalance on a power-law graph)."""

    def test_misalignment_heats_the_links(self):
        from repro.eval.accelerator import program_for, run_config
        from repro.graphs import pubmed
        from repro.runtime.engine import RuntimeEngine

        def run_with(placement):
            accel = Accelerator(GPU_ISO_BW, placement=placement)
            return RuntimeEngine(accel).run(program_for("gcn-pubmed"))

        reports = {
            "aligned": run_config("gcn-pubmed", GPU_ISO_BW),
            "misaligned": run_with(RoundRobinPlacement(
                num_tiles=8, num_memories=8, memory_offset=4,
            )),
            "range": run_with(RangePlacement(
                num_vertices=pubmed().num_nodes, num_tiles=8, num_memories=8,
            )),
        }
        print("\nPlacement ablation (GCN Pubmed, GPU iso-BW):")
        for name, report in reports.items():
            print(
                f"  {name:10s}: {report.latency_ms:.3f} ms, "
                f"peak NoC link {report.noc_peak_link_utilization:.0%}"
            )
        aligned, misaligned = reports["aligned"], reports["misaligned"]
        # Misalignment routes every stream across the mesh: hotter links
        # and no better latency.
        assert (
            misaligned.noc_peak_link_utilization
            > aligned.noc_peak_link_utilization
        )
        assert misaligned.latency_ns >= 0.95 * aligned.latency_ns
        # Range blocks keep alignment, so they stay within 2x of aligned
        # round-robin despite the edge imbalance.
        assert reports["range"].latency_ns < 2 * aligned.latency_ns
