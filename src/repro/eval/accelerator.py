"""Cached accelerator simulation entry point for the evaluation drivers.

Every simulation request resolves to a content-hashed operating point
(:func:`repro.exp.cache.point_key`) and goes through two layers:

* the per-process memo — repeat lookups return the identical object;
* the persistent :class:`~repro.exp.cache.ResultCache` — repeat runs of
  the drivers in fresh processes are near-instant.

Keying on the *resolved configuration's contents* (not its name) means a
mutated or replaced configuration — as ``examples/design_sweeps.py``
encourages — is re-simulated instead of silently served a stale report.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from repro.accel.config import AcceleratorConfig
from repro.exp.cache import DEFAULT_CACHE, clear_memo, lookup, point_key, store
from repro.models.registry import Benchmark, benchmark_by_key, load_benchmark
from repro.runtime.compiler import compile_model
from repro.runtime.engine import simulate
from repro.runtime.report import SimulationReport
from repro.space import resolve_config

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Observer

#: Dict-backed registry lookups, kept under their historical names —
#: the CLI, energy driver, and tests import them from here.  Unknown
#: names raise ``KeyError`` listing every valid key.
_benchmark_by_key = benchmark_by_key
_config_by_name = resolve_config


def resolve_benchmark_config(
    benchmark_key: str,
    config_name: str = "CPU iso-BW",
    clock_ghz: float = 2.4,
    noc_backend: str | None = None,
) -> tuple[Benchmark, AcceleratorConfig]:
    """Resolve user-facing names to registry objects, in one place.

    The single source of truth for name resolution: the CLI's exit-2
    paths, :func:`run_benchmark`, and the :mod:`repro.systems` accel
    backend all funnel through :func:`repro.space.resolve_config` (the
    named points of the default parameter space — bit-identical to the
    historical literals) and the benchmark registry, so an unknown
    benchmark or configuration always raises the same ``KeyError``
    listing the valid names.
    """
    benchmark = benchmark_by_key(benchmark_key)
    config = resolve_config(config_name).with_clock(clock_ghz)
    if noc_backend is not None:
        config = config.with_noc_backend(noc_backend)
    return benchmark, config


@functools.lru_cache(maxsize=None)
def _compiled_program(benchmark_key: str):
    benchmark = benchmark_by_key(benchmark_key)
    model, data = load_benchmark(benchmark)
    return compile_model(model, data)


def run_config(
    benchmark_key: str,
    config: AcceleratorConfig,
    cache: object = DEFAULT_CACHE,
    observer: "Observer | None" = None,
) -> SimulationReport:
    """Simulate one benchmark on one fully-resolved configuration.

    The caching layers key on the configuration's *contents* (every
    field, hashed), so two configs that differ in any parameter never
    share an entry, and equal configs always do — whatever they are
    named.

    ``observer`` attaches the :mod:`repro.obs` layer.  Metrics only
    exist for a run that actually executes, so an observed request
    always simulates — but it stores its (bit-identical) report under
    the *same* cache key a bare run would use: observer attachment is
    excluded from the cache fingerprint, like the watchdog budgets.
    """
    benchmark_by_key(benchmark_key)  # validate early, before hashing
    key = point_key(benchmark_key, config)
    if observer is not None:
        report = simulate(_compiled_program(benchmark_key), config,
                          observer=observer)
        store(key, report, cache)
        return report
    report = lookup(key, cache)
    if report is None:
        report = simulate(_compiled_program(benchmark_key), config)
        store(key, report, cache)
    return report


def run_benchmark(
    benchmark_key: str,
    config_name: str = "CPU iso-BW",
    clock_ghz: float = 2.4,
    observer: "Observer | None" = None,
    noc_backend: str | None = None,
) -> SimulationReport:
    """Simulate one benchmark on one Table VI configuration.

    The evaluation drivers (Figure 8 clock sweep, Figure 10
    utilizations) share simulations of the same operating point through
    the process memo and the persistent store.  ``observer`` attaches
    the :mod:`repro.obs` layer (forcing a real simulation; the cache key
    is unchanged).  ``noc_backend`` selects a registered
    :mod:`repro.noc.backends` model by name; ``None`` keeps the
    configuration's own (default: ``"packet"``, or
    ``$REPRO_NOC_BACKEND``).  The backend is part of the cache
    fingerprint, so fidelities never share cached reports.
    """
    _, config = resolve_benchmark_config(
        benchmark_key, config_name, clock_ghz, noc_backend
    )
    return run_config(benchmark_key, config, observer=observer)


#: Drop the in-memory layer (API-compatible with the old ``lru_cache``
#: entry point; the benchmark harness uses it to time real simulations).
run_benchmark.cache_clear = clear_memo
