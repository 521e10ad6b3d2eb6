"""Graph partitioning for multi-chip scaling (ROADMAP item 1).

Splits a benchmark input across N accelerator chips and accounts for the
boundary traffic the split creates:

* :mod:`repro.partition.methods` — seeded, deterministic assignment
  heuristics (greedy BFS level-order; METIS-style multilevel).
* :mod:`repro.partition.core` — :class:`Partition` / :class:`Shard`:
  induced subgraphs, halo-node maps, cut-edge statistics, invariants.
* :mod:`repro.partition.comm` — closed-form inter-chip communication
  volumes (Guirado et al. model): per-cut-edge and deduplicated halo.
* :mod:`repro.partition.shards` — memoized partitions and compiled
  shard programs; a shard simulates through
  :func:`repro.eval.accelerator.run_config` with ``shard=``.

The ``multichip`` execution system (:mod:`repro.systems.multichip`)
composes these into cross-system :class:`~repro.systems.base.SystemReport`s.
"""

from repro.partition.comm import (
    aggregation_ops,
    communication_volume_bytes,
    edge_volume_bytes,
    halo_volume_bytes,
)
from repro.partition.core import (
    Partition,
    Shard,
    ShardSpec,
    induced_subgraph,
    partition_graph,
)
from repro.partition.methods import (
    DEFAULT_METHOD,
    PARTITION_METHODS,
    bfs_assignment,
    method_names,
    metis_assignment,
    validate_method,
)
from repro.partition.shards import (
    clear_partition_memo,
    partition_benchmark,
)

__all__ = [
    "DEFAULT_METHOD",
    "PARTITION_METHODS",
    "Partition",
    "Shard",
    "ShardSpec",
    "aggregation_ops",
    "bfs_assignment",
    "clear_partition_memo",
    "communication_volume_bytes",
    "edge_volume_bytes",
    "halo_volume_bytes",
    "induced_subgraph",
    "method_names",
    "metis_assignment",
    "partition_benchmark",
    "partition_graph",
    "validate_method",
]
