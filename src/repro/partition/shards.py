"""Memoized partitions and compiled shard programs.

The multi-chip system simulates each shard on the *existing* ``accel``
path — same compiler, same engine, same report format, same
cache-through run: :func:`repro.eval.accelerator.run_config` with
``shard=`` keys the shard as :func:`repro.exp.cache.point_key` plus a
``shard`` stanza (:meth:`~repro.partition.core.ShardSpec.fingerprint`).
Via the ``shard=`` field on :class:`repro.exp.runner.Point`, shards also
ride the parallel sweep pool with its retry/timeout machinery.

Partitions and compiled shard programs are memoized per process, so a
scaling sweep partitions each benchmark once per (chips, method, seed)
and compiles each shard once.
"""

from __future__ import annotations

import functools

from repro.partition.core import Partition, ShardSpec, partition_graph


@functools.lru_cache(maxsize=None)
def partition_benchmark(
    benchmark_key: str, chips: int, method: str, seed: int
) -> Partition:
    """The (memoized) partition of one benchmark's input data."""
    from repro.models.registry import benchmark_by_key
    from repro.graphs.datasets import load_dataset

    benchmark = benchmark_by_key(benchmark_key)
    data = load_dataset(benchmark.dataset)
    return partition_graph(data, chips, method=method, seed=seed)


@functools.lru_cache(maxsize=None)
def compiled_shard_program(benchmark_key: str, spec: ShardSpec):
    """Compile one shard's induced subgraph into an accelerator program.

    Uses the benchmark's registry model (identical construction to the
    whole-graph :func:`repro.eval.accelerator._compiled_program` path)
    applied to the shard's data slice.
    """
    from repro.models.registry import benchmark_by_key, load_benchmark
    from repro.runtime.compiler import compile_model

    benchmark = benchmark_by_key(benchmark_key)
    model, _ = load_benchmark(benchmark)
    partition = partition_benchmark(
        benchmark_key, spec.chips, spec.method, spec.seed
    )
    return compile_model(model, partition.shards[spec.index].data)


def clear_partition_memo() -> None:
    """Drop the per-process partition and shard-program memos (tests)."""
    partition_benchmark.cache_clear()
    compiled_shard_program.cache_clear()
