"""Ablation: DNQ lazy virtual-queue switching (DESIGN.md section 5).

The DNQ supports two virtual queues for multiple simultaneous DNN models
but has a single dequeue interface; switching the eligible queue costs an
idle window (16 cycles).  This ablation runs a two-model workload in two
schedules — pathologically interleaved queue ids vs batched per queue —
and shows the switch penalty is what makes batching matter.
"""

import numpy as np

from repro.accel import CPU_ISO_BW
from repro.runtime import (
    AcceleratorProgram,
    LayerProgram,
    TaskTable,
    simulate,
)


def dual_model_program(interleaved: bool, tasks_per_model: int = 64):
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


def test_bench_dnq_switching(benchmark):
    def run():
        interleaved = simulate(dual_model_program(True), CPU_ISO_BW)
        batched = simulate(dual_model_program(False), CPU_ISO_BW)
        return interleaved, batched

    interleaved, batched = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nDNQ dual-queue ablation: interleaved={interleaved.latency_ns:.0f}ns"
        f" batched={batched.latency_ns:.0f}ns "
        f"(penalty {interleaved.latency_ns / batched.latency_ns:.2f}x)"
    )
    # Interleaving pays the 16-idle-cycle switch window per entry pair.
    assert interleaved.latency_ns > 1.3 * batched.latency_ns
