"""Tests for the bandwidth-latency memory controller."""

import dataclasses

import pytest

from repro.accel.config import CPU_ISO_BW, MemoryConfig
from repro.accel.memory import MemoryController
from repro.eval.accelerator import run_config
from repro.sim import Simulator


def make(**overrides) -> MemoryController:
    return MemoryController(Simulator(), "mem", MemoryConfig(**overrides))


class TestAlignment:
    def test_exact_multiple_unchanged(self):
        assert make().aligned_size(128) == 128

    def test_rounds_up_to_64(self):
        assert make().aligned_size(1) == 64
        assert make().aligned_size(65) == 128

    def test_zero_size_costs_one_burst(self):
        assert make().aligned_size(0) == 64

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make().aligned_size(-1)


class TestSingleRequest:
    def test_completion_includes_transfer_and_latency(self):
        mem = make()
        # 64B at 68 GBps = 0.941 ns transfer + 20 ns latency.
        completion = mem.request_scatter(1, 64, now=0.0)
        assert completion == pytest.approx(64 / 68.0 + 20.0)

    def test_latency_dominates_small_requests(self):
        mem = make()
        assert mem.request_scatter(1, 4, now=100.0) == pytest.approx(
            100.0 + 64 / 68.0 + 20.0
        )

    def test_large_request_serializes_on_channel(self):
        mem = make()
        completion = mem.request_scatter(1, 68_000, now=0.0)
        assert completion == pytest.approx(1000.0 + 20.0, rel=0.01)


class TestQueueing:
    def test_back_to_back_requests_serialize(self):
        mem = make()
        # ~100 ns transfer (aligned)
        first = mem.request_scatter(1, 6800, now=0.0)
        second = mem.request_scatter(1, 6800, now=0.0)
        assert second == pytest.approx(first + 100.0, rel=0.01)

    def test_queue_depth_backpressure(self):
        # 33rd simultaneous request cannot be accepted until the first
        # completes (32-entry in-order queue).
        mem = make()
        completions = [
            mem.request_scatter(1, 64, now=0.0) for _ in range(33)
        ]
        transfer = 64 / 68.0
        # Without backpressure the 33rd would complete at 33*transfer+20;
        # with it, acceptance waits for completion #1 (transfer+20), adding
        # most of one latency.
        assert completions[32] >= completions[0] + 32 * transfer

    def test_idle_gap_resets_queue(self):
        mem = make()
        for _ in range(32):
            mem.request_scatter(1, 64, now=0.0)
        late = mem.request_scatter(1, 64, now=10_000.0)
        assert late == pytest.approx(10_000.0 + 64 / 68.0 + 20.0)


class TestScatter:
    def test_zero_count_is_noop(self):
        mem = make()
        assert mem.request_scatter(0, 4, now=5.0) == 5.0
        assert mem.stats.get("requests") == 0

    def test_batch_equivalent_to_sum_of_aligned_transfers(self):
        mem = make()
        completion = mem.request_scatter(10, 4, now=0.0)
        assert completion == pytest.approx(10 * 64 / 68.0 + 20.0)

    def test_waste_accounting(self):
        mem = make()
        mem.request_scatter(10, 4, now=0.0)
        assert mem.stats.get("bytes_requested") == 40
        assert mem.stats.get("bytes_serviced") == 640
        assert mem.stats.get("bytes_wasted") == 600

    def test_counts_every_request(self):
        mem = make()
        mem.request_scatter(7, 16, now=0.0)
        assert mem.stats.get("requests") == 7

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            make().request_scatter(-1, 4, now=0.0)


class TestReporting:
    def test_read_write_split(self):
        mem = make()
        mem.request_scatter(1, 64, now=0.0)
        mem.request_scatter(1, 64, now=0.0, write=True)
        assert mem.stats.get("reads") == 1
        assert mem.stats.get("writes") == 1

    def test_bandwidth_utilization(self):
        mem = make()
        # ~1000 ns of channel time
        mem.request_scatter(1, 68_000, now=0.0)
        assert mem.bandwidth_utilization(2000.0) == pytest.approx(0.5, rel=0.01)

    def test_utilization_capped_at_one(self):
        mem = make()
        mem.request_scatter(1, 68_000, now=0.0)
        assert mem.bandwidth_utilization(10.0) == 1.0

    def test_custom_bandwidth(self):
        mem = make(bandwidth_gbps=34.0)
        completion = mem.request_scatter(1, 3400, now=0.0)
        assert completion == pytest.approx(100.0 + 20.0, rel=0.02)


class TestGranularityAblation:
    """Section V: requests that are not multiples of the DRAM burst waste
    bandwidth.  PGNN's 4B traversal reads are the worst case, but PGNN is
    GPE-bound, so coarser bursts cost it traffic, not latency."""

    def test_coarser_bursts_waste_traffic_not_latency(self):
        reports = {}
        for granularity in (32, 64, 128):
            memory = dataclasses.replace(
                CPU_ISO_BW.memory, access_granularity_bytes=granularity
            )
            reports[granularity] = run_config(
                "pgnn-dblp_1", dataclasses.replace(CPU_ISO_BW, memory=memory)
            )
        print("\nMemory access granularity ablation (PGNN DBLP_1):")
        for granularity, report in reports.items():
            waste = report.dram_wasted_bytes / report.dram_bytes
            print(
                f"  {granularity:4d}B bursts: {report.latency_ms:.3f} ms, "
                f"DRAM {report.dram_bytes / 1e6:.2f} MB ({waste:.0%} wasted)"
            )
        assert reports[128].dram_bytes > reports[64].dram_bytes
        assert reports[64].dram_bytes > reports[32].dram_bytes
        assert reports[128].latency_ns < 1.2 * reports[32].latency_ns
