"""Tests for the GraphPE issue server and thread pool."""

import dataclasses

import pytest

from repro.accel.config import CPU_ISO_BW, GpeCostModel, TileConfig
from repro.accel.gpe import GraphPE
from repro.eval.accelerator import run_config
from repro.sim import Clock, Simulator


def make(threads=4, freq=1.0):
    config = TileConfig(gpe_threads=threads)
    return GraphPE(Simulator(), "gpe", config, Clock(freq))


def issue(gpe, instructions, ready_ns):
    """One runtime action through the unit's cost and occupy calls."""
    return gpe.issue_ns(gpe.service_ns(instructions), instructions, ready_ns)


class TestIssue:
    def test_includes_context_switch_cycle(self):
        gpe = make(freq=1.0)
        finish = issue(gpe, 10, ready_ns=0.0)
        assert finish == pytest.approx(11.0)

    def test_issues_serialize(self):
        gpe = make(freq=1.0)
        first = issue(gpe, 10, 0.0)
        second = issue(gpe, 10, 0.0)
        assert second == pytest.approx(first + 11.0)

    def test_ready_time_respected(self):
        gpe = make(freq=1.0)
        finish = issue(gpe, 5, ready_ns=100.0)
        assert finish == pytest.approx(106.0)

    def test_clock_scales_issue_time(self):
        slow = make(freq=1.2)
        fast = make(freq=2.4)
        assert issue(slow, 23, 0.0) == pytest.approx(2 * issue(fast, 23, 0.0))

    def test_negative_instructions_rejected(self):
        with pytest.raises(ValueError):
            make().service_ns(-1)

    def test_instruction_statistics(self):
        gpe = make()
        issue(gpe, 10, 0.0)
        issue(gpe, 20, 0.0)
        assert gpe.stats.get("instructions") == 30
        assert gpe.stats.get("issues") == 2


class TestThreadPool:
    def test_grants_up_to_pool_size(self):
        gpe = make(threads=3)
        grants = []
        for i in range(5):
            gpe.acquire_thread_at(lambda t, i=i: grants.append(i))
        assert grants == [0, 1, 2]
        assert gpe.free_threads == 0
        assert gpe.stats.get("thread_stalls") == 2

    def test_release_wakes_waiters_fifo(self):
        gpe = make(threads=1)
        grants = []
        for i in range(3):
            gpe.acquire_thread_at(lambda t, i=i: grants.append((i, t)))
        gpe.release_thread(now=5.0)
        gpe.release_thread(now=7.0)
        assert grants == [(0, 0.0), (1, 5.0), (2, 7.0)]

    def test_release_restores_pool(self):
        gpe = make(threads=2)
        gpe.acquire_thread_at(lambda t: None)
        gpe.release_thread(now=0.0)
        assert gpe.free_threads == 2

    def test_over_release_rejected(self):
        gpe = make(threads=2)
        with pytest.raises(RuntimeError):
            gpe.release_thread(now=0.0)


class TestReporting:
    def test_utilization(self):
        gpe = make(freq=1.0)
        issue(gpe, 9, 0.0)  # 10 ns busy
        assert gpe.utilization(40.0) == pytest.approx(0.25)

    def test_cost_model_attached(self):
        gpe = make()
        assert isinstance(gpe.costs, GpeCostModel)


class TestThreadPoolAblation:
    """DESIGN.md section 5: the GPE hides memory latency by switching
    between software threads in one cycle; a pool of one thread exposes
    every memory round trip."""

    def test_more_threads_hide_more_memory_latency(self):
        reports = {}
        for threads in (1, 4, 16):
            tile = dataclasses.replace(CPU_ISO_BW.tile, gpe_threads=threads)
            reports[threads] = run_config(
                "gcn-cora", dataclasses.replace(CPU_ISO_BW, tile=tile)
            )
        print("\nGPE thread-pool ablation (GCN Cora, CPU iso-BW):")
        for threads, report in reports.items():
            print(f"  {threads:2d} threads: {report.latency_ms:.3f} ms")
        assert reports[1].latency_ns > reports[4].latency_ns
        assert reports[4].latency_ns >= reports[16].latency_ns
        # A single thread serializes round trips: at least 2x slower.
        assert reports[1].latency_ns > 2 * reports[16].latency_ns
