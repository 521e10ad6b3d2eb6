"""Tests for the assembled accelerator (tiles + memories + NoC)."""

import pytest

from repro.accel import CPU_ISO_BW, GPU_ISO_BW, Accelerator, Tile
from repro.sim import Clock, Simulator


@pytest.fixture
def single():
    return Accelerator(CPU_ISO_BW)


@pytest.fixture
def multi():
    return Accelerator(GPU_ISO_BW)


class TestAssembly:
    def test_tile_and_memory_counts(self, multi):
        assert len(multi.tiles) == 8
        assert len(multi.memories) == 8

    def test_tiles_at_configured_coordinates(self, multi):
        assert [t.coord for t in multi.tiles] == list(
            GPU_ISO_BW.tile_coords
        )

    def test_clock_propagates(self):
        accel = Accelerator(CPU_ISO_BW.with_clock(1.2))
        assert accel.tiles[0].gpe.clock.freq_ghz == 1.2
        assert accel.tiles[0].dna.clock.freq_ghz == 1.2


class TestPlacement:
    def test_tile_interleave(self, multi):
        assert multi.tile_of(0) is multi.tiles[0]
        assert multi.tile_of(9) is multi.tiles[1]

    def test_memory_interleave(self, multi):
        controller, coord = multi.memory_of(10)
        assert controller is multi.memories[2]
        assert coord == GPU_ISO_BW.memory_coords[2]

    def test_single_tile_maps_everything_to_it(self, single):
        for vertex in (0, 1, 99):
            assert single.tile_of(vertex) is single.tiles[0]


class TestTransfers:
    def test_memory_read_includes_round_trip(self, single):
        tile = single.tiles[0].coord
        arrival = single.memory_read(0, 64, 0.0, tile)
        # Request header hop + channel (0.94ns) + 20ns + response hop.
        assert arrival > 20.0
        assert arrival < 30.0

    def test_memory_write_lands_in_controller(self, single):
        single.memory_write(0, 64, 0.0, single.tiles[0].coord)
        assert single.memories[0].stats.get("writes") == 1

    def test_gather_read_splits_across_memories(self, multi):
        dest = multi.tiles[0].coord
        multi.gather_read(16, 4, 0.0, dest)
        for controller in multi.memories:
            assert controller.stats.get("requests") == 2

    def test_gather_read_remainder_distribution(self, multi):
        multi.gather_read(3, 4, 0.0, multi.tiles[0].coord)
        requests = [m.stats.get("requests") for m in multi.memories]
        assert sum(requests) == 3
        assert max(requests) == 1

    def test_gather_read_zero_count(self, single):
        assert single.gather_read(0, 4, 7.0, single.tiles[0].coord) == 7.0

    def test_larger_reads_take_longer(self, single):
        tile = single.tiles[0].coord
        small = single.memory_read(0, 64, 0.0, tile)
        fresh = Accelerator(CPU_ISO_BW)
        large = fresh.memory_read(0, 64 * 1024, 0.0, fresh.tiles[0].coord)
        assert large > small


class TestReporting:
    def test_total_dram_bytes(self, multi):
        multi.memory_read(0, 64, 0.0, multi.tiles[0].coord)
        multi.memory_read(1, 64, 0.0, multi.tiles[1].coord)
        assert multi.total_dram_bytes() == 128

    def test_bandwidth_utilization_bounds(self, single):
        single.memory_read(0, 6800, 0.0, single.tiles[0].coord)
        util = single.bandwidth_utilization(1000.0)
        assert 0 < util <= 1

    def test_dna_utilization_averages_tiles(self, multi):
        dna = multi.tiles[0].dna
        dna.execute_ns(dna.service_ns(182 * 100, 1.0), 182 * 100, 0.0)
        util = multi.dna_utilization(100.0 / 2.4)
        assert util == pytest.approx(1.0 / 8)

    def test_zero_elapsed_bandwidth(self, single):
        assert single.mean_bandwidth_gbps(0.0) == 0.0


class TestTile:
    def test_configure_layer_propagates(self):
        tile = Tile(Simulator(), (0, 0), CPU_ISO_BW.tile, Clock(2.4))
        tile.configure_layer(dnq_entry_bytes=2048, agg_width_values=32)
        assert tile.dnq.capacity == 31
        assert tile.agg.capacity == CPU_ISO_BW.tile.max_aggregations(32)
