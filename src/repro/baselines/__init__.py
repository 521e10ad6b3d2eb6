"""CPU and GPU baseline performance models (paper Table III / Table VII).

The paper measures reference implementations on a 14-core Xeon E5-2680v4
and an NVIDIA Titan XP.  Without that hardware, this package substitutes
analytical models: each benchmark's :class:`~repro.models.workload.
ModelWorkload` is priced on a machine model with dense-compute, sparse-
compute, traversal, bandwidth, and per-kernel-overhead terms whose
efficiency constants were calibrated once against the measured Table VII
latencies (see EXPERIMENTS.md for modeled-vs-measured).  The paper's
measured numbers are also shipped verbatim (:data:`TABLE7_MEASURED_MS`)
and are what the Figure 8 speedups normalize against, exactly as in the
paper.
"""

from repro.baselines.machines import (
    CPU_MACHINE,
    GPU_MACHINE,
    MachineModel,
)
from repro.baselines.roofline import estimate_latency_ms, workload_breakdown
from repro.baselines.table7 import TABLE7_MEASURED_MS

__all__ = [
    "MachineModel",
    "CPU_MACHINE",
    "GPU_MACHINE",
    "estimate_latency_ms",
    "workload_breakdown",
    "TABLE7_MEASURED_MS",
]
