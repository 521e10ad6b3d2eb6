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
from repro.exp.cache import DEFAULT_CACHE, point_key, run_cached
from repro.models.registry import benchmark_by_key, load_benchmark
from repro.runtime.compiler import compile_model
from repro.runtime.engine import simulate
from repro.runtime.report import SimulationReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.partition.core import ShardSpec
    from repro.runtime.program import AcceleratorProgram


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
    shard: "ShardSpec | None" = None,
) -> SimulationReport:
    """Simulate one benchmark on one fully-resolved configuration.

    The caching layers key on the configuration's *contents* (every
    field, hashed), so two configs that differ in any parameter never
    share an entry, and equal configs always do — whatever they are
    named.  ``shard`` simulates one shard of a partitioned input instead
    of the whole graph, under the shard-extended key.  A Table VI row by
    name is ``run_config(key, resolve_accel_config(name, clock))``
    (:func:`repro.systems.accel.resolve_accel_config`).
    """
    benchmark_by_key(benchmark_key)  # validate early, before hashing
    return run_cached(
        point_key(benchmark_key, config, shard),
        lambda: simulate(program_for(benchmark_key, shard), config),
        cache,
    )
