"""Figure 10: memory bandwidth and DNA utilization, CPU iso-BW config."""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.accelerator import run_config
from repro.models.registry import BENCHMARKS
from repro.systems.accel import resolve_accel_config


@dataclass(frozen=True)
class Figure10Row:
    """One benchmark's utilization bars."""

    benchmark: str
    bandwidth_utilization: float
    mean_bandwidth_gbps: float
    dna_utilization: float
    gpe_utilization: float


def figure10(clock_ghz: float = 2.4) -> list[Figure10Row]:
    """Observed mean memory bandwidth and DNA utilization per benchmark.

    The paper plots these for the CPU iso-bandwidth configuration; the
    GPE utilization is included because it explains the PGNN row (near
    zero DNA utilization, GPE saturated — Section VI-A).
    """
    config = resolve_accel_config("CPU iso-BW", clock_ghz)
    rows = []
    for benchmark in BENCHMARKS:
        report = run_config(benchmark.key, config)
        rows.append(
            Figure10Row(
                benchmark=benchmark.key,
                bandwidth_utilization=report.bandwidth_utilization,
                mean_bandwidth_gbps=report.mean_bandwidth_gbps,
                dna_utilization=report.dna_utilization,
                gpe_utilization=report.gpe_utilization,
            )
        )
    return rows
