"""Cached accelerator simulation entry point for the evaluation drivers.

Every simulation request — the whole graph or one shard of a partitioned
input — resolves to a content-hashed operating point
(:func:`repro.exp.cache.point_key`) and goes through the one
cache-through run (:func:`repro.exp.cache.run_cached`):

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
from repro.exp.cache import DEFAULT_CACHE, clear_memo, point_key, run_cached
from repro.models.registry import Benchmark, benchmark_by_key, load_benchmark
from repro.runtime.compiler import compile_model
from repro.runtime.engine import simulate
from repro.runtime.report import SimulationReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Observer
    from repro.partition.core import ShardSpec
    from repro.runtime.program import AcceleratorProgram


def resolve_benchmark_config(
    benchmark_key: str,
    config_name: str = "CPU iso-BW",
    clock_ghz: float = 2.4,
    noc_backend: str | None = None,
) -> tuple[Benchmark, AcceleratorConfig]:
    """Resolve user-facing names to registry objects, in one place.

    The benchmark comes from the registry and the configuration from
    :func:`repro.systems.accel.resolve_accel_config` (name, then clock,
    then NoC backend) — the recipe every accelerator consumer shares —
    so an unknown benchmark or configuration always raises the same
    ``KeyError`` listing the valid names.
    """
    from repro.systems.accel import resolve_accel_config

    benchmark = benchmark_by_key(benchmark_key)
    return benchmark, resolve_accel_config(config_name, clock_ghz,
                                           noc_backend)


@functools.lru_cache(maxsize=None)
def _compiled_program(benchmark_key: str):
    benchmark = benchmark_by_key(benchmark_key)
    model, data = load_benchmark(benchmark)
    return compile_model(model, data)


def program_for(
    benchmark_key: str, shard: "ShardSpec | None" = None
) -> "AcceleratorProgram":
    """The compiled (memoized) program of the whole benchmark input, or
    of one shard's induced subgraph."""
    if shard is None:
        return _compiled_program(benchmark_key)
    from repro.partition.shards import compiled_shard_program

    return compiled_shard_program(benchmark_key, shard)


def run_config(
    benchmark_key: str,
    config: AcceleratorConfig,
    cache: object = DEFAULT_CACHE,
    observer: "Observer | None" = None,
    shard: "ShardSpec | None" = None,
) -> SimulationReport:
    """Simulate one benchmark on one fully-resolved configuration.

    The caching layers key on the configuration's *contents* (every
    field, hashed), so two configs that differ in any parameter never
    share an entry, and equal configs always do — whatever they are
    named.  ``shard`` simulates one shard of a partitioned input instead
    of the whole graph, under the shard-extended key.

    ``observer`` attaches the :mod:`repro.obs` layer.  An observed
    request always simulates, but stores its (bit-identical) report
    under the key a bare run would use.
    """
    benchmark_by_key(benchmark_key)  # validate early, before hashing
    return run_cached(
        point_key(benchmark_key, config, shard),
        lambda observer: simulate(program_for(benchmark_key, shard), config,
                                  observer=observer),
        cache,
        observer,
    )


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
