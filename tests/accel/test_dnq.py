"""Tests for the DNN queue (delayed enqueue, lazy switching)."""

import pytest

from repro.accel.config import TileConfig
from repro.accel.dna import DnaUnit
from repro.accel.dnq import DnnQueue
from repro.sim import Clock, Simulator


def make(entry_bytes=1024, freq=1.0):
    sim = Simulator()
    clock = Clock(freq)
    config = TileConfig()
    dna = DnaUnit(sim, "dna", config.dna, clock)
    dnq = DnnQueue(sim, "dnq", config, dna, clock)
    dnq.configure(entry_bytes)
    return sim, dnq, dna


def fill(dnq, ready_ns, macs, queue_id=0):
    """Fill one entry with a job of ``macs`` MACs at full array use;
    returns the DNA finish time."""
    return dnq.fill(ready_ns, dnq.dna.service_ns(macs, 1.0), macs,
                    queue_id=queue_id)


class TestReservation:
    def test_capacity_from_entry_size(self):
        _, dnq, _ = make(entry_bytes=62 * 1024)
        assert dnq.capacity == 1
        _, dnq, _ = make(entry_bytes=1024)
        assert dnq.capacity == 62

    def test_immediate_grant_when_space(self):
        _, dnq, _ = make()
        granted = []
        dnq.reserve(lambda: granted.append(1))
        assert granted == [1]
        assert dnq.slots_in_use == 1

    def test_waitlist_when_full(self):
        _, dnq, _ = make(entry_bytes=62 * 1024)  # capacity 1
        order = []
        dnq.reserve(lambda: order.append("first"))
        dnq.reserve(lambda: order.append("second"))
        assert order == ["first"]
        assert dnq.stats.get("reservation_stalls") == 1

    def test_fill_releases_slot_to_waiter(self):
        sim, dnq, _ = make(entry_bytes=62 * 1024)
        order = []
        dnq.reserve(lambda: order.append("first"))
        dnq.reserve(lambda: order.append("second"))
        fill(dnq, 0.0, macs=182)
        sim.run()
        assert order == ["first", "second"]

    def test_reconfigure_while_occupied_rejected(self):
        _, dnq, _ = make()
        dnq.reserve(lambda: None)
        with pytest.raises(RuntimeError):
            dnq.configure(2048)


class TestDispatch:
    def test_fill_runs_job_on_dna(self):
        sim, dnq, dna = make(freq=1.0)
        finishes = []
        dnq.reserve(lambda: None)
        finishes.append(fill(dnq, 10.0, macs=182))
        sim.run()
        assert finishes == [pytest.approx(11.0)]
        assert dna.stats.get("jobs") == 1

    def test_same_queue_has_no_switch_penalty(self):
        sim, dnq, _ = make(freq=1.0)
        finishes = []
        for _ in range(2):
            dnq.reserve(lambda: None)
            finishes.append(fill(dnq, 0.0, macs=182, queue_id=0))
        sim.run()
        assert finishes[1] == pytest.approx(2.0)
        assert dnq.stats.get("queue_switches") == 0

    def test_lazy_switch_adds_idle_window(self):
        sim, dnq, _ = make(freq=1.0)
        finishes = []
        dnq.reserve(lambda: None)
        finishes.append(fill(dnq, 0.0, macs=182, queue_id=0))
        dnq.reserve(lambda: None)
        finishes.append(fill(dnq, 0.0, macs=182, queue_id=1))
        sim.run()
        # Second job waits 16 idle cycles after the DNA frees up.
        assert finishes[1] == pytest.approx(1.0 + 16.0 + 1.0)
        assert dnq.stats.get("queue_switches") == 1

    def test_switch_back_counts_again(self):
        sim, dnq, _ = make()
        for queue in (0, 1, 0):
            dnq.reserve(lambda: None)
            fill(dnq, 0.0, macs=1, queue_id=queue)
        sim.run()
        assert dnq.stats.get("queue_switches") == 2

    def test_invalid_queue_rejected(self):
        _, dnq, _ = make()
        dnq.reserve(lambda: None)
        with pytest.raises(ValueError):
            fill(dnq, 0.0, macs=1, queue_id=5)
