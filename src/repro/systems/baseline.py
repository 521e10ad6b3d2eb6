"""The CPU and GPU baseline machines as :class:`ExecutionBackend`\\ s.

``execute`` prices the benchmark's analytical workload on the Table III
machine model (:func:`repro.baselines.roofline.workload_breakdown`) and
reports the paper's measured Table VII latency as the headline number —
exactly what the Figure 8 speedups normalize against.  Both numbers
appear in the breakdown (``measured_ms`` and ``modeled_ms``, the
EXPERIMENTS.md calibration view).  Benchmarks outside Table VII (the
registered extension rows — GraphSAGE, GIN) have no measured number, so
they report the modeled latency; the plan's ``measured`` parameter
records which one a benchmark reports.
"""

from __future__ import annotations

import dataclasses

from repro.baselines.machines import CPU_MACHINE, GPU_MACHINE, MachineModel
from repro.baselines.roofline import workload_breakdown
from repro.baselines.table7 import TABLE7_MEASURED_MS
from repro.exp.cache import DEFAULT_CACHE
from repro.models.registry import benchmark_by_key, benchmark_workload
from repro.systems.base import ExecutionPlan, SystemReport

CPU_SYSTEM_NAME = "cpu"
GPU_SYSTEM_NAME = "gpu"

_MACHINES: dict[str, MachineModel] = {
    CPU_SYSTEM_NAME: CPU_MACHINE,
    GPU_SYSTEM_NAME: GPU_MACHINE,
}


class BaselineSystem:
    """One Table III machine: measured Table VII latency + roofline model."""

    def __init__(self, system: str) -> None:
        if system not in _MACHINES:
            raise ValueError(
                f"baseline system must be one of {sorted(_MACHINES)}, "
                f"got {system!r}"
            )
        self.name = system
        self._machine = _MACHINES[system]

    @property
    def machine(self) -> MachineModel:
        return self._machine

    def prepare(self, benchmark_key: str) -> ExecutionPlan:
        return ExecutionPlan(
            system=self.name,
            benchmark_key=benchmark_key,
            params=(
                ("machine", dataclasses.asdict(self._machine)),
                ("measured", benchmark_key in TABLE7_MEASURED_MS),
            ),
        )

    def execute(
        self,
        plan: ExecutionPlan,
        cache: object = DEFAULT_CACHE,
    ) -> SystemReport:
        workload = benchmark_workload(benchmark_by_key(plan.benchmark_key))
        parts = workload_breakdown(workload, self._machine)
        breakdown = dataclasses.asdict(parts)
        breakdown["modeled_ms"] = parts.total_ms
        measured = TABLE7_MEASURED_MS.get(plan.benchmark_key)
        if measured is not None:
            breakdown["measured_ms"] = (
                measured[0] if self.name == CPU_SYSTEM_NAME else measured[1]
            )
        return SystemReport(
            system=self.name,
            benchmark=plan.benchmark_key,
            latency_ms=breakdown.get("measured_ms", breakdown["modeled_ms"]),
            breakdown=breakdown,
        )
