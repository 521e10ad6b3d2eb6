"""Figure 8: normalized speedups of the accelerator configurations.

Left third: CPU iso-BW vs the measured CPU latencies; middle: GPU iso-BW
vs the measured GPU latencies; right: GPU iso-FLOPS vs the measured GPU
latencies.  Each group sweeps the tile clock (the NoC and memory keep
their bandwidth, Section VI-B).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exp.cache import DEFAULT_CACHE
from repro.exp.runner import (
    FIGURE8_CLOCKS,
    FIGURE8_GROUPS,
    figure8_points,
    run_sweep,
)
from repro.models.registry import BENCHMARKS

__all__ = [
    "FIGURE8_CLOCKS",
    "FIGURE8_GROUPS",
    "Figure8Cell",
    "figure8",
    "mean_speedup",
]


@dataclass(frozen=True)
class Figure8Cell:
    """One bar of Figure 8."""

    config: str
    baseline: str
    benchmark: str
    clock_ghz: float
    latency_ms: float
    baseline_ms: float

    @property
    def speedup(self) -> float:
        """Baseline latency over simulated accelerator latency."""
        return self.baseline_ms / self.latency_ms


def figure8(
    clocks: tuple[float, ...] = FIGURE8_CLOCKS,
    groups: tuple[tuple[str, str], ...] = FIGURE8_GROUPS,
    benchmarks: tuple[str, ...] | None = None,
    jobs: int = 1,
    cache: object = DEFAULT_CACHE,
) -> list[Figure8Cell]:
    """All Figure 8 bars: configs x benchmarks x clocks.

    ``jobs > 1`` distributes uncached simulations over a process pool
    (:func:`repro.exp.runner.run_sweep`); results are identical to the
    serial path.  Baseline latencies come from the registered ``cpu`` /
    ``gpu`` execution backends (:func:`repro.systems.run_system`) — the
    measured Table VII numbers the paper normalizes against — through
    the same caching layers as the accelerator points.
    """
    from repro.systems import run_system

    keys = benchmarks or tuple(b.key for b in BENCHMARKS)
    grid = [
        (config_name, baseline_system, key, clock)
        for config_name, baseline_system in groups
        for key in keys
        for clock in clocks
    ]
    points = figure8_points(keys, clocks, [name for name, _ in groups])
    reports = run_sweep(points, jobs=jobs, cache=cache)
    baselines = {
        (system, key): run_system(system, key, cache=cache).latency_ms
        for system in dict.fromkeys(system for _, system in groups)
        for key in keys
    }
    return [
        Figure8Cell(
            config=config_name,
            baseline=baseline_system,
            benchmark=key,
            clock_ghz=clock,
            latency_ms=report.latency_ms,
            baseline_ms=baselines[(baseline_system, key)],
        )
        for (config_name, baseline_system, key, clock), report in zip(
            grid, reports
        )
    ]


def mean_speedup(cells: list[Figure8Cell], config: str, clock_ghz: float) -> float:
    """Arithmetic-mean speedup of one Figure 8 group at one clock."""
    selected = [
        c.speedup for c in cells
        if c.config == config and c.clock_ghz == clock_ghz
    ]
    if not selected:
        raise ValueError(f"no cells for {config!r} at {clock_ghz} GHz")
    return sum(selected) / len(selected)
