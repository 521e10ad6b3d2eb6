"""Tests for the DNN queue (delayed enqueue, lazy switching)."""

import numpy as np
import pytest

from repro.accel.config import CPU_ISO_BW, TileConfig
from repro.accel.dna import DnaUnit
from repro.accel.dnq import DnnQueue
from repro.runtime import AcceleratorProgram, LayerProgram, TaskTable, simulate
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


def dual_model_program(interleaved: bool, tasks_per_model: int = 64):
    """Two DNN models sharing one layer, their queue ids alternating
    task by task or batched per queue."""
    n = 2 * tasks_per_model
    if interleaved:
        queues = np.tile([0, 1], tasks_per_model)
    else:
        queues = np.repeat([0, 1], tasks_per_model)
    tasks = TaskTable(
        n,
        vertex=np.arange(n),
        control_instructions=4,
        feature_bytes=256,
        dna_macs=182 * 8,
        output_bytes=64,
        dnq_queue=queues,
    )
    return AcceleratorProgram(
        name="dual-model",
        layers=[LayerProgram(name="shared", tasks=tasks,
                             dnq_entry_bytes=256)],
    )


class TestSwitchingAblation:
    """DESIGN.md section 5: the DNQ's two virtual queues share one
    dequeue interface, so a two-model workload that interleaves its
    queue ids pays the idle switch window that batching avoids."""

    def test_interleaving_pays_the_switch_window(self):
        interleaved = simulate(dual_model_program(True), CPU_ISO_BW)
        batched = simulate(dual_model_program(False), CPU_ISO_BW)
        print(
            f"\nDNQ dual-queue ablation: "
            f"interleaved={interleaved.latency_ns:.0f}ns "
            f"batched={batched.latency_ns:.0f}ns "
            f"(penalty {interleaved.latency_ns / batched.latency_ns:.2f}x)"
        )
        # Interleaving pays the 16-idle-cycle switch window per entry pair.
        assert interleaved.latency_ns > 1.3 * batched.latency_ns
