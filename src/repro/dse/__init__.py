"""Design-space exploration over hardware parameter spaces.

The ``repro dse`` subcommand's engine: search drivers
(:mod:`repro.dse.drivers` — grid, seeded random, (μ+λ) evolutionary)
propose points of a :class:`repro.space.ConfigSpace`, every proposal is
simulated through the cached sweep machinery, and the result is a
Pareto frontier (:mod:`repro.dse.pareto`) over latency, ALU count, and
memory bandwidth — emitted as a byte-stable schema-v1 JSON report plus
a terminal table.
"""

from __future__ import annotations

from repro.dse.drivers import (
    DRIVERS,
    DseResult,
    Evaluation,
    driver_names,
    resolve_driver,
    run_dse,
)
from repro.dse.pareto import (
    OBJECTIVES,
    dominates,
    hypervolume_proxy,
    objective_bounds,
    pareto_frontier,
)

__all__ = [
    "DRIVERS",
    "DseResult",
    "Evaluation",
    "OBJECTIVES",
    "dominates",
    "driver_names",
    "hypervolume_proxy",
    "objective_bounds",
    "pareto_frontier",
    "resolve_driver",
    "run_dse",
]
