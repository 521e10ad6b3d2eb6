"""Cached cross-system execution: the entry point the drivers use.

:func:`run_system` is the cross-system sibling of
:func:`repro.eval.accelerator.run_benchmark`: resolve the workload,
prepare a plan on the named system, and run it through the one
cache-through function (:func:`repro.exp.cache.run_cached` — per-process
memo, then the persistent :class:`~repro.exp.cache.ResultCache`, else
execute and store).  The plan's content-hash key always names the
system, so no two systems — and no two parameterizations of one system
— ever share an entry.

The caller's ``cache`` reaches every simulation underneath: the backend's
``execute`` receives it, so ``accel`` and ``multichip`` store their inner
simulations where the caller asked (nowhere, for ``cache=None``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exp.cache import DEFAULT_CACHE, run_cached
from repro.systems.base import ExecutionPlan, SystemReport, resolve_workload
from repro.systems.registry import SystemOptions, create_system

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Observer


def system_plan(
    system: str,
    benchmark_key: str,
    seed: int = 0,
    options: SystemOptions | None = None,
    **overrides,
) -> ExecutionPlan:
    """Prepare (without executing) a benchmark on a named system.

    The returned plan's :attr:`~repro.systems.base.ExecutionPlan.key`
    is the result-cache key an execution would store under.
    """
    backend = create_system(system, options=options, **overrides)
    return backend.prepare(resolve_workload(benchmark_key, seed=seed))


def run_system(
    system: str,
    benchmark_key: str,
    seed: int = 0,
    options: SystemOptions | None = None,
    cache: object = DEFAULT_CACHE,
    observer: "Observer | None" = None,
    **overrides,
) -> SystemReport:
    """Execute one benchmark on one system, through the caching layers.

    ``observer`` attaches the :mod:`repro.obs` layer; metrics only exist
    for an execution, so an observed request always executes — but it
    stores its (identical) report under the same cache key a bare run
    would use, exactly like the accelerator path.  ``cache`` also holds
    the inner simulations of ``accel`` and ``multichip``.
    """
    backend = create_system(system, options=options, **overrides)
    plan = backend.prepare(resolve_workload(benchmark_key, seed=seed))
    return run_cached(
        plan.key,
        lambda observer: backend.execute(plan, observer=observer,
                                         cache=cache),
        cache,
        observer,
    )
