"""Cached cross-system execution: the entry point the drivers use.

:func:`run_system` is the cross-system sibling of
:func:`repro.eval.accelerator.run_config`: canonicalize the benchmark
key, prepare a plan on the named system, and run it through the one
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

from repro.exp.cache import DEFAULT_CACHE, run_cached
from repro.models.registry import resolve_benchmark_key
from repro.systems.base import ExecutionBackend, ExecutionPlan, SystemReport
from repro.systems.registry import SystemOptions, create_system


def _prepare(
    system: str,
    benchmark_key: str,
    options: SystemOptions | None,
    overrides: dict,
) -> tuple[ExecutionBackend, ExecutionPlan]:
    """The named backend and its plan for ``benchmark_key``; shorthands
    (``"qm9"``) canonicalize first, and unknown keys raise the
    registry's :class:`KeyError` listing every valid key."""
    backend = create_system(system, options=options, **overrides)
    return backend, backend.prepare(resolve_benchmark_key(benchmark_key))


def system_plan(
    system: str,
    benchmark_key: str,
    options: SystemOptions | None = None,
    **overrides,
) -> ExecutionPlan:
    """Prepare (without executing) a benchmark on a named system.

    The returned plan's :attr:`~repro.systems.base.ExecutionPlan.key`
    is the result-cache key an execution would store under.
    """
    return _prepare(system, benchmark_key, options, overrides)[1]


def run_system(
    system: str,
    benchmark_key: str,
    options: SystemOptions | None = None,
    cache: object = DEFAULT_CACHE,
    **overrides,
) -> SystemReport:
    """Execute one benchmark on one system, through the caching layers.

    ``cache`` also holds the inner simulations of ``accel`` and
    ``multichip``.  A benchmark
    the system cannot map raises
    :class:`~repro.systems.base.UnsupportedWorkloadError` and stores
    nothing.
    """
    backend, plan = _prepare(system, benchmark_key, options, overrides)
    return run_cached(
        plan.key, lambda: backend.execute(plan, cache=cache), cache
    )
