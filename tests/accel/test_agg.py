"""Tests for the aggregator (count-down reductions, capacity pool)."""

import pytest

from repro.accel.agg import Aggregator
from repro.accel.config import TileConfig
from repro.sim import Clock, Simulator


def make(width=16, freq=1.0):
    sim = Simulator()
    agg = Aggregator(sim, "agg", TileConfig(), Clock(freq))
    agg.configure(width)
    return sim, agg


class TestAllocation:
    def test_grant_takes_one_cycle(self):
        _, agg = make()
        grants = []
        agg.alloc(2, lambda t, i: grants.append((t, i)))
        assert len(grants) == 1
        assert grants[0][0] == pytest.approx(1.0)

    def test_capacity_limit_queues_allocations(self):
        _, agg = make(width=16)  # control-limited: 128 entries
        grants = []
        for _ in range(130):
            agg.alloc(1, lambda t, i: grants.append(i))
        assert len(grants) == 128
        assert agg.stats.get("alloc_stalls") == 2

    def test_completion_frees_capacity(self):
        sim, agg = make(width=16)
        grants = []
        for _ in range(129):
            agg.alloc(1, lambda t, i: grants.append(i))
        assert len(grants) == 128
        agg.contribute_batch(grants[0], arrival_ns=5.0, count=1)  # completes
        assert len(grants) == 129

    def test_zero_input_aggregation_rejected(self):
        _, agg = make()
        with pytest.raises(ValueError):
            agg.alloc(0, lambda t, i: None)

    def test_reconfigure_with_entries_in_flight_rejected(self):
        _, agg = make()
        agg.alloc(1, lambda t, i: None)
        with pytest.raises(RuntimeError):
            agg.configure(32)


class TestContribution:
    def test_count_down_to_completion(self):
        _, agg = make()
        ids = []
        agg.alloc(3, lambda t, i: ids.append(i))
        agg.contribute_batch(ids[0], 10.0, count=1)
        agg.contribute_batch(ids[0], 20.0, count=1)
        assert agg.in_flight == 1
        agg.contribute_batch(ids[0], 30.0, count=1)
        assert agg.in_flight == 0

    def test_alu_bank_cycles_per_width(self):
        # 16 values on 16 ALUs: one cycle; 32 values: two cycles.
        _, agg = make(width=32)
        ids = []
        agg.alloc(1, lambda t, i: ids.append(i))
        finish = agg.contribute_batch(ids[0], arrival_ns=0.0, count=1)
        assert finish == pytest.approx(2.0)

    def test_contributions_serialize_on_alu_bank(self):
        _, agg = make(width=16)
        ids = []
        agg.alloc(2, lambda t, i: ids.append(i))
        agg.alloc(2, lambda t, i: ids.append(i))
        first = agg.contribute_batch(ids[0], 0.0, count=1)
        second = agg.contribute_batch(ids[1], 0.0, count=1)
        assert second == pytest.approx(first + 1.0)

    def test_unknown_aggregation_rejected(self):
        _, agg = make()
        with pytest.raises(KeyError):
            agg.contribute_batch(999, 0.0, count=1)


class TestBatchContribution:
    def test_batch_equals_sequential_timing(self):
        _, agg = make(width=16)
        ids = []
        agg.alloc(5, lambda t, i: ids.append(i))
        finish = agg.contribute_batch(ids[0], arrival_ns=0.0, count=5)
        assert finish == pytest.approx(5.0)

    def test_partial_batch_keeps_entry_alive(self):
        _, agg = make()
        ids = []
        agg.alloc(5, lambda t, i: ids.append(i))
        agg.contribute_batch(ids[0], 0.0, count=3)
        assert agg.in_flight == 1
        agg.contribute_batch(ids[0], 0.0, count=2)
        assert agg.in_flight == 0

    def test_overcontribution_rejected(self):
        _, agg = make()
        ids = []
        agg.alloc(2, lambda t, i: ids.append(i))
        with pytest.raises(ValueError):
            agg.contribute_batch(ids[0], 0.0, count=3)

    def test_empty_batch_rejected(self):
        _, agg = make()
        ids = []
        agg.alloc(2, lambda t, i: ids.append(i))
        with pytest.raises(ValueError):
            agg.contribute_batch(ids[0], 0.0, count=0)

    def test_batch_completion_fires_callback(self):
        """The batch that completes an aggregation frees its entry, which
        fires the grant callback of the allocation waiting for one."""
        _, agg = make(width=16)
        ids = []
        for _ in range(agg.capacity + 1):
            agg.alloc(4, lambda t, i: ids.append(i))
        assert len(ids) == agg.capacity
        agg.contribute_batch(ids[0], 0.0, count=4)
        assert len(ids) == agg.capacity + 1


class TestReporting:
    def test_value_statistics(self):
        _, agg = make(width=8)
        ids = []
        agg.alloc(2, lambda t, i: ids.append(i))
        agg.contribute_batch(ids[0], 0.0, count=1)
        agg.contribute_batch(ids[0], 0.0, count=1)
        assert agg.stats.get("contributions") == 2
        assert agg.stats.get("values") == 16

    def test_utilization(self):
        _, agg = make(width=16)
        ids = []
        agg.alloc(1, lambda t, i: ids.append(i))
        agg.contribute_batch(ids[0], 0.0, count=1)  # 1 cycle = 1 ns busy
        assert agg.utilization(4.0) == pytest.approx(0.25)
