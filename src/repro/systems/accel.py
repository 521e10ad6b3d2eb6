"""The simulated GNN accelerator as an :class:`ExecutionBackend`.

A thin protocol adapter over the existing compile-and-simulate path:
``prepare`` resolves the Table VI configuration (clock and NoC backend
applied) and ``execute`` delegates to
:func:`repro.eval.accelerator.run_config` through
:func:`simulated_system_report`, so reports are bit-identical to the
``run_benchmark`` path — same compiler memo, same simulation-report
cache keys, same observer semantics.  The inner simulation honours the
caller's ``cache``: ``run_system("accel", ..., cache=None)`` persists
nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.accel.config import AcceleratorConfig
from repro.exp.cache import DEFAULT_CACHE, config_fingerprint
from repro.space import resolve_config
from repro.systems.base import ExecutionPlan, SystemReport, Workload
from repro.systems.registry import SystemOptions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Observer

#: Table VI row used when the caller does not pick one (matches
#: ``run_benchmark``'s default).
DEFAULT_CONFIG_NAME = "CPU iso-BW"

#: Default tile clock in GHz (the paper's 2.4 GHz design point).
DEFAULT_CLOCK_GHZ = 2.4


def resolve_accel_config(
    config_name: str | None = None,
    clock_ghz: float | None = None,
    noc_backend: str | None = None,
) -> AcceleratorConfig:
    """The accelerator recipe every caller shares: the Table VI row by
    name (:func:`repro.space.resolve_config`), then the tile clock, then
    the NoC backend.  ``None`` keeps the default row, the default clock
    and the row's own backend (``"packet"``).
    """
    config = resolve_config(config_name or DEFAULT_CONFIG_NAME)
    config = config.with_clock(clock_ghz or DEFAULT_CLOCK_GHZ)
    if noc_backend is not None:
        config = config.with_noc_backend(noc_backend)
    return config


class AcceleratorSystem:
    """The paper's proposed accelerator, simulated event by event."""

    name = "accel"

    def __init__(self, options: SystemOptions = SystemOptions()) -> None:
        self._config = resolve_accel_config(
            options.config_name, options.clock_ghz, options.noc_backend
        )

    @property
    def config(self) -> AcceleratorConfig:
        """The fully-resolved configuration this backend simulates."""
        return self._config

    def prepare(self, workload: Workload) -> ExecutionPlan:
        return ExecutionPlan(
            system=self.name,
            workload=workload,
            params=(("config", config_fingerprint(self._config)),),
            payload=self._config,
        )

    def execute(
        self,
        plan: ExecutionPlan,
        observer: "Observer | None" = None,
        cache: object = DEFAULT_CACHE,
    ) -> SystemReport:
        return simulated_system_report(
            self.name, plan.workload.benchmark_key, plan.payload, cache,
            observer,
        )


def simulated_system_report(
    system: str,
    benchmark_key: str,
    config: AcceleratorConfig,
    cache: object = DEFAULT_CACHE,
    observer: "Observer | None" = None,
) -> SystemReport:
    """One whole-graph accelerator simulation as a :class:`SystemReport`
    named ``system``, carrying the full
    :class:`~repro.runtime.report.SimulationReport` as its detail.

    The simulation itself runs through
    :func:`repro.eval.accelerator.run_config` under the standard accel
    point key and the caller's ``cache``.
    """
    from repro.eval.accelerator import run_config

    report = run_config(benchmark_key, config, cache=cache,
                        observer=observer)
    return SystemReport(
        system=system,
        benchmark=benchmark_key,
        latency_ms=report.latency_ms,
        breakdown={
            "bandwidth_utilization": report.bandwidth_utilization,
            "dna_utilization": report.dna_utilization,
            "gpe_utilization": report.gpe_utilization,
            "agg_utilization": report.agg_utilization,
            "dram_mb": report.dram_bytes / 1e6,
        },
        detail=report,
    )
