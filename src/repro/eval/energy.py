"""Energy extension: per-benchmark energy on the CPU iso-BW accelerator.

Not a paper artifact — Section II motivates the design with wasted energy
but the evaluation only reports latency.  This driver prices the simulated
activity with :mod:`repro.accel.energy` and compares against the Table III
baselines running at board power for their measured Table VII latencies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.accel.energy import (
    EnergyReport,
    baseline_energy_uj,
    estimate_energy,
)
from repro.accel.system import Accelerator
from repro.baselines.table7 import TABLE7_MEASURED_MS
from repro.eval.accelerator import _compiled_program
from repro.models.registry import BENCHMARKS
from repro.runtime.engine import RuntimeEngine


@dataclass(frozen=True)
class EnergyRow:
    """One benchmark's energy picture."""

    benchmark: str
    accel_uj: float
    dominant: str
    cpu_baseline_uj: float
    gpu_baseline_uj: float
    breakdown: EnergyReport

    @property
    def vs_cpu(self) -> float:
        """Energy advantage over the CPU baseline (x)."""
        return self.cpu_baseline_uj / self.accel_uj

    @property
    def vs_gpu(self) -> float:
        """Energy advantage over the GPU baseline (x)."""
        return self.gpu_baseline_uj / self.accel_uj


@functools.lru_cache(maxsize=None)
def energy_table(
    config_name: str = "CPU iso-BW", clock_ghz: float = 2.4
) -> tuple[EnergyRow, ...]:
    """Energy of every benchmark on one accelerator configuration.

    The configuration resolves through
    :func:`repro.systems.accel.resolve_accel_config`, the recipe every
    accelerator consumer shares — unknown names raise the same
    valid-names ``KeyError`` every other consumer reports.
    """
    from repro.systems.accel import resolve_accel_config

    config = resolve_accel_config(config_name, clock_ghz)
    rows = []
    for benchmark in BENCHMARKS:
        # The energy model prices the accelerator's own activity
        # counters, so it needs the instance the program ran on.
        accel = Accelerator(config)
        RuntimeEngine(accel).run(_compiled_program(benchmark.key))
        energy = estimate_energy(accel)
        cpu_ms, gpu_ms = TABLE7_MEASURED_MS[benchmark.key]
        rows.append(
            EnergyRow(
                benchmark=benchmark.key,
                accel_uj=energy.total_uj,
                dominant=energy.dominant_component(),
                cpu_baseline_uj=baseline_energy_uj(cpu_ms, "cpu"),
                gpu_baseline_uj=baseline_energy_uj(gpu_ms, "gpu"),
                breakdown=energy,
            )
        )
    return tuple(rows)
