"""Tests for the design-space sweep utilities (fast benchmarks only)."""

import pytest

from repro.accel import CPU_ISO_BW
from repro.eval.sweeps import (
    bandwidth_sweep,
    bound_analysis,
    clock_sweep,
    tile_sweep,
)


class TestClockSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return clock_sweep("pgnn-dblp_1", CPU_ISO_BW, clocks_ghz=(1.2, 2.4))

    def test_one_point_per_clock(self, points):
        assert [p.value for p in points] == [1.2, 2.4]

    def test_gpe_bound_workload_scales(self, points):
        slow, fast = points
        assert slow.latency_ms == pytest.approx(2 * fast.latency_ms,
                                                rel=0.1)
        assert bound_analysis(points) == "scales"

    def test_reports_carry_clock(self, points):
        assert points[0].report.clock_ghz == 1.2


class TestBandwidthSweep:
    def test_more_bandwidth_never_slower(self):
        points = bandwidth_sweep(
            "gcn-cora", CPU_ISO_BW, bandwidths_gbps=(34.0, 68.0, 136.0)
        )
        latencies = [p.latency_ms for p in points]
        assert latencies == sorted(latencies, reverse=True)

    def test_bandwidth_insensitive_workload(self):
        # PGNN is GPE-bound: bandwidth does not matter.
        points = bandwidth_sweep(
            "pgnn-dblp_1", CPU_ISO_BW, bandwidths_gbps=(34.0, 136.0)
        )
        assert points[0].latency_ms == pytest.approx(
            points[1].latency_ms, rel=0.05
        )


class TestTileSweep:
    def test_tiles_reduce_latency(self):
        points = tile_sweep("gcn-cora", tile_counts=(1, 4))
        assert points[1].latency_ms < points[0].latency_ms

    @pytest.mark.slow
    def test_pubmed_scales_beyond_table_vi(self):
        """DESIGN.md section 5: 1/2/4/8 tile+memory pairs, each adding
        68 GBps and 198 ALUs, on the largest single-graph benchmark."""
        points = tile_sweep("gcn-pubmed", tile_counts=(1, 2, 4, 8))
        base = points[0].report.latency_ns
        print("\nTile scaling ablation (GCN Pubmed):")
        for point in points:
            pairs = int(point.value)
            scaling = base / point.report.latency_ns
            print(
                f"  {pairs} tile(s): {point.latency_ms:.3f} ms "
                f"({scaling:.2f}x, {scaling / pairs:.0%} efficiency)"
            )
        latencies = [point.report.latency_ns for point in points]
        assert latencies == sorted(latencies, reverse=True)
        assert base / latencies[-1] > 3.0


class TestBoundAnalysis:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            bound_analysis([])

    def test_flat_classification(self):
        points = bandwidth_sweep(
            "pgnn-dblp_1", CPU_ISO_BW, bandwidths_gbps=(34.0, 136.0)
        )
        # Reinterpret as a "clock-like" sweep: latencies equal -> flat.
        assert bound_analysis(points) == "flat"
