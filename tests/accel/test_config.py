"""Tests for accelerator configurations (Tables I, VI, Figure 9)."""

import pytest

from repro.accel import (
    CONFIGURATIONS,
    CPU_ISO_BW,
    GPU_ISO_BW,
    GPU_ISO_FLOPS,
    AcceleratorConfig,
    GpeCostModel,
    TileConfig,
)


class TestTableVI:
    def test_three_configurations(self):
        assert [c.name for c in CONFIGURATIONS] == [
            "CPU iso-BW", "GPU iso-BW", "GPU iso-FLOPS",
        ]

    def test_tile_counts(self):
        assert CPU_ISO_BW.num_tiles == 1
        assert GPU_ISO_BW.num_tiles == 8
        assert GPU_ISO_FLOPS.num_tiles == 16

    def test_memory_node_counts(self):
        assert CPU_ISO_BW.num_memory_nodes == 1
        assert GPU_ISO_BW.num_memory_nodes == 8
        assert GPU_ISO_FLOPS.num_memory_nodes == 8

    def test_alu_column(self):
        # 198 ALUs per tile = 182 DNA PEs + 16 AGG ALUs.
        assert CPU_ISO_BW.total_alus == 198
        assert GPU_ISO_BW.total_alus == 1584
        assert GPU_ISO_FLOPS.total_alus == 3168

    def test_bandwidth_column(self):
        assert CPU_ISO_BW.total_bandwidth_gbps == pytest.approx(68.0)
        assert GPU_ISO_BW.total_bandwidth_gbps == pytest.approx(544.0)
        assert GPU_ISO_FLOPS.total_bandwidth_gbps == pytest.approx(544.0)

    def test_coordinates_inside_mesh_and_disjoint(self):
        for config in CONFIGURATIONS:
            occupied = list(config.tile_coords) + list(config.memory_coords)
            assert len(set(occupied)) == len(occupied)
            for x, y in occupied:
                assert 0 <= x < config.mesh_width
                assert 0 <= y < config.mesh_height

    def test_iso_flops_memory_traffic_is_row_local(self):
        # Tiles k and k+8 share memory node k and must sit in its row.
        for k in range(8):
            mem = GPU_ISO_FLOPS.memory_coords[k]
            near = GPU_ISO_FLOPS.tile_coords[k]
            far = GPU_ISO_FLOPS.tile_coords[k + 8]
            assert near[1] == far[1] == mem[1]


class TestTileConfig:
    def test_default_alus(self):
        assert TileConfig().alus == 198

    def test_max_aggregations_data_bound(self):
        # Wide entries: 62kB / (1024 values x 4B) = 15 entries.
        assert TileConfig().max_aggregations(1024) == 15

    def test_max_aggregations_control_bound(self):
        # Narrow entries hit the 2kB/16B = 128 metadata limit first.
        assert TileConfig().max_aggregations(16) == 128

    def test_max_aggregations_never_zero(self):
        assert TileConfig().max_aggregations(100_000) == 1

    def test_max_dnq_entries(self):
        assert TileConfig().max_dnq_entries(62 * 1024) == 1
        assert TileConfig().max_dnq_entries(1024) == 62

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            TileConfig().max_aggregations(0)
        with pytest.raises(ValueError):
            TileConfig().max_dnq_entries(0)

    def test_invalid_tile_rejected(self):
        with pytest.raises(ValueError):
            TileConfig(agg_alus=0)
        with pytest.raises(ValueError):
            TileConfig(gpe_threads=0)


class TestGpeCostModel:
    def test_defaults_positive(self):
        costs = GpeCostModel()
        assert costs.instructions_per_visit > costs.instructions_per_load

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            GpeCostModel(instructions_per_load=-1)


class TestAcceleratorConfig:
    def test_with_clock_preserves_everything_else(self):
        slow = GPU_ISO_BW.with_clock(1.2)
        assert slow.clock_ghz == 1.2
        assert slow.name == GPU_ISO_BW.name
        assert slow.tile_coords == GPU_ISO_BW.tile_coords
        assert slow.total_bandwidth_gbps == GPU_ISO_BW.total_bandwidth_gbps

    @pytest.mark.parametrize("clock", [0.0, -1.0, float("nan"),
                                       float("inf")])
    def test_unusable_clock_rejected(self, clock):
        with pytest.raises(ValueError, match="clock_ghz"):
            AcceleratorConfig(
                name="bad", mesh_width=2, mesh_height=1,
                tile_coords=((0, 0),), memory_coords=((1, 0),),
                clock_ghz=clock,
            )
        with pytest.raises(ValueError, match="clock_ghz"):
            CPU_ISO_BW.with_clock(clock)

    def test_overlapping_coordinates_rejected(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(
                name="bad", mesh_width=2, mesh_height=1,
                tile_coords=((0, 0),), memory_coords=((0, 0),),
            )

    def test_out_of_mesh_coordinates_rejected(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(
                name="bad", mesh_width=2, mesh_height=1,
                tile_coords=((0, 0),), memory_coords=((2, 0),),
            )

    def test_empty_configuration_rejected(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(
                name="bad", mesh_width=2, mesh_height=1,
                tile_coords=(), memory_coords=((1, 0),),
            )

    def test_empty_memory_rejected(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(
                name="bad", mesh_width=2, mesh_height=1,
                tile_coords=((0, 0),), memory_coords=(),
            )

    def test_out_of_mesh_tile_coordinate_rejected(self):
        # The memory-coord twin exists above; tiles validate too.
        with pytest.raises(ValueError):
            AcceleratorConfig(
                name="bad", mesh_width=2, mesh_height=1,
                tile_coords=((0, 1),), memory_coords=((1, 0),),
            )
        with pytest.raises(ValueError):
            AcceleratorConfig(
                name="bad", mesh_width=2, mesh_height=1,
                tile_coords=((-1, 0),), memory_coords=((1, 0),),
            )

    def test_duplicate_within_tile_coords_rejected(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(
                name="bad", mesh_width=3, mesh_height=1,
                tile_coords=((0, 0), (0, 0)), memory_coords=((2, 0),),
            )

    def test_with_noc_backend_preserves_everything_else(self):
        switched = CPU_ISO_BW.with_noc_backend("analytical")
        assert switched.noc_backend == "analytical"
        assert switched.name == CPU_ISO_BW.name
        assert switched.tile_coords == CPU_ISO_BW.tile_coords
        assert switched.clock_ghz == CPU_ISO_BW.clock_ghz

    def test_with_noc_backend_rejects_unknown_names(self):
        from repro.errors import UnknownNameError

        with pytest.raises(UnknownNameError):
            CPU_ISO_BW.with_noc_backend("booksim")

    def test_noc_runs_at_fixed_2p4_ghz(self):
        # Section VI-B: the clock sweep keeps NoC bandwidth identical.
        assert CPU_ISO_BW.noc.clock_ghz == 2.4
        assert CPU_ISO_BW.with_clock(1.2).noc.clock_ghz == 2.4
