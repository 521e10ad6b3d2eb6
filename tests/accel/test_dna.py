"""Tests for the DNA latency-throughput model."""

import pytest

from repro.accel.dna import DnaUnit
from repro.dataflow import EYERISS_CONFIG
from repro.sim import Clock, Simulator


def make(freq=2.4) -> DnaUnit:
    return DnaUnit(Simulator(), "dna", EYERISS_CONFIG, Clock(freq))


class TestServiceTime:
    def test_peak_throughput(self):
        dna = make(freq=1.0)
        # 182 MACs at efficiency 1.0 = one cycle = 1 ns at 1 GHz.
        assert dna.service_ns(182, 1.0) == pytest.approx(1.0)

    def test_efficiency_scales_service(self):
        dna = make(freq=1.0)
        assert dna.service_ns(182, 0.5) == pytest.approx(2.0)

    def test_clock_scales_service(self):
        slow, fast = make(freq=1.2), make(freq=2.4)
        assert slow.service_ns(1000, 1.0) == pytest.approx(
            2 * fast.service_ns(1000, 1.0)
        )

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ValueError):
            make().service_ns(100, 0.0)
        with pytest.raises(ValueError):
            make().service_ns(100, 1.5)

    def test_negative_macs_rejected(self):
        with pytest.raises(ValueError):
            make().service_ns(-1, 1.0)


def execute(dna, macs, efficiency, ready_ns):
    """One job through the unit's cost and occupy calls."""
    return dna.execute_ns(dna.service_ns(macs, efficiency), macs, ready_ns)


class TestExecution:
    def test_jobs_serialize_fifo(self):
        dna = make(freq=1.0)
        _, first_finish = execute(dna, 182, 1.0, ready_ns=0.0)
        start, _ = execute(dna, 182, 1.0, ready_ns=0.0)
        assert start == pytest.approx(first_finish)

    def test_idle_gap_preserved(self):
        dna = make(freq=1.0)
        execute(dna, 182, 1.0, ready_ns=0.0)
        start, _ = execute(dna, 182, 1.0, ready_ns=100.0)
        assert start == pytest.approx(100.0)

    def test_stats_accumulate(self):
        dna = make()
        execute(dna, 100, 1.0, 0.0)
        execute(dna, 200, 1.0, 0.0)
        assert dna.stats.get("jobs") == 2
        assert dna.stats.get("macs") == 300


class TestReporting:
    def test_utilization(self):
        dna = make(freq=1.0)
        execute(dna, 182 * 10, 1.0, ready_ns=0.0)  # 10 ns busy
        assert dna.utilization(40.0) == pytest.approx(0.25)

    def test_effective_macs_per_cycle(self):
        dna = make(freq=1.0)
        execute(dna, 182 * 10, 1.0, ready_ns=0.0)
        # 1820 MACs over 20 ns (20 cycles at 1 GHz) = 91 MACs/cycle.
        assert dna.effective_macs_per_cycle(20.0) == pytest.approx(91.0)

    def test_zero_elapsed(self):
        assert make().effective_macs_per_cycle(0.0) == 0.0
