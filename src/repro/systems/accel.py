"""The simulated GNN accelerator as an :class:`ExecutionBackend`.

A thin protocol adapter over the existing compile-and-simulate path:
construction resolves the Table VI configuration (clock and NoC backend
applied), ``prepare`` keys it, and ``execute`` delegates to
:func:`repro.eval.accelerator.run_config` through
:func:`simulated_system_report`, so reports are bit-identical to a
direct ``run_config`` — same compiler memo, same simulation-report
cache keys.  The inner simulation honours the caller's ``cache``:
``run_system("accel", ..., cache=None)`` persists nothing.
"""

from __future__ import annotations

from repro.accel.config import AcceleratorConfig, resolve_config
from repro.exp.cache import DEFAULT_CACHE, config_fingerprint
from repro.systems.base import ExecutionPlan, SystemReport
from repro.systems.registry import SystemOptions

#: Table VI row used when the caller does not pick one.
DEFAULT_CONFIG_NAME = "CPU iso-BW"

#: Default tile clock in GHz (the paper's 2.4 GHz design point).
DEFAULT_CLOCK_GHZ = 2.4


def resolve_accel_config(
    config_name: str | None = None,
    clock_ghz: float | None = None,
    noc_backend: str | None = None,
) -> AcceleratorConfig:
    """The accelerator recipe every caller shares: the Table VI row by
    name (:func:`repro.accel.config.resolve_config`), then the tile
    clock, then the NoC backend.  ``None`` keeps the default row, the
    default clock and the row's own backend (``"packet"``); any other
    name that is not a row raises
    :class:`~repro.errors.UnknownNameError`, and any other clock that is
    not positive and finite ``ValueError``.
    """
    config = resolve_config(
        DEFAULT_CONFIG_NAME if config_name is None else config_name
    )
    config = config.with_clock(
        DEFAULT_CLOCK_GHZ if clock_ghz is None else clock_ghz
    )
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

    def prepare(self, benchmark_key: str) -> ExecutionPlan:
        return ExecutionPlan(
            system=self.name,
            benchmark_key=benchmark_key,
            params=(("config", config_fingerprint(self._config)),),
        )

    def execute(
        self,
        plan: ExecutionPlan,
        cache: object = DEFAULT_CACHE,
    ) -> SystemReport:
        return simulated_system_report(
            self.name, plan.benchmark_key, self._config, cache
        )


def simulated_system_report(
    system: str,
    benchmark_key: str,
    config: AcceleratorConfig,
    cache: object = DEFAULT_CACHE,
) -> SystemReport:
    """One whole-graph accelerator simulation as a :class:`SystemReport`
    named ``system``, carrying the full
    :class:`~repro.runtime.report.SimulationReport` as its detail.

    The simulation itself runs through
    :func:`repro.eval.accelerator.run_config` under the standard accel
    point key and the caller's ``cache``.
    """
    from repro.eval.accelerator import run_config

    report = run_config(benchmark_key, config, cache=cache)
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
