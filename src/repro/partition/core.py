"""Partitions: shard subgraphs, halo maps, and cut-edge statistics.

:func:`partition_graph` splits a benchmark input across ``N`` chips and
returns a :class:`Partition` whose invariants the multi-chip execution
system (and the property-test suite) rely on:

* the shards' node sets are disjoint and cover every node;
* every directed cut entry ``(u, v)`` — ``u`` aggregating a neighbour
  ``v`` owned by another shard — appears in exactly one boundary map:
  shard-of-``u``'s ``cut_edges`` bucket for shard-of-``v``;
* per-shard internal edge counts plus the total cut equal the graph's
  directed entry count exactly (nothing is dropped or double counted);
* the same ``(data, parts, method, seed)`` always yields the identical
  partition.

For a single :class:`~repro.graphs.graph.Graph` the shards are induced
subgraphs (internal edges only, features sliced, vertex ids remapped to
local) and the *halo* of a shard is, per remote owner, the unique set of
remote vertices whose features the shard's aggregations consume — the
quantity the Guirado et al. communication model prices per layer.  A
:class:`~repro.graphs.graph.GraphSet` (the QM9 workload) shards by whole
graphs: molecules never straddle chips, so the cut is structurally zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.graphs.graph import Graph, GraphSet
from repro.partition.methods import (
    DEFAULT_METHOD,
    PARTITION_METHODS,
    _check_parts,
    validate_method,
)


@dataclass(frozen=True)
class ShardSpec:
    """Content-addressable identity of one shard of one partition.

    Everything that determines *which* subgraph a shard simulates:
    the partition method and seed, the chip count, and the shard index.
    Its :meth:`fingerprint` is the ``shard`` half of a per-shard result
    cache key (the other half is the accelerator config, exactly as in
    :func:`repro.exp.cache.point_fingerprint`).
    """

    chips: int
    index: int
    method: str = DEFAULT_METHOD
    seed: int = 0

    def __post_init__(self) -> None:
        if self.chips < 1:
            raise ValueError(f"chips must be >= 1, got {self.chips}")
        if not 0 <= self.index < self.chips:
            raise ValueError(
                f"shard index {self.index} outside [0, {self.chips})"
            )
        validate_method(self.method)

    def fingerprint(self) -> dict[str, Any]:
        """Plain-data identity (feeds content-hash cache keys)."""
        return {
            "chips": self.chips,
            "index": self.index,
            "method": self.method,
            "seed": self.seed,
        }


@dataclass
class Shard:
    """One chip's slice of the input.

    ``nodes`` holds global item ids (vertex ids for a graph, graph
    indices for a graph set) in ascending order; ``data`` is the
    simulatable slice (induced subgraph / sub-``GraphSet``).  ``halo``
    and ``cut_edges`` are keyed by the *owning* remote shard: ``halo[b]``
    is the unique global vertices owned by shard ``b`` whose features
    this shard's aggregations read, and ``cut_edges[b]`` counts the
    directed adjacency entries behind those reads.
    """

    index: int
    nodes: np.ndarray
    data: Graph | GraphSet
    halo: dict[int, np.ndarray] = field(default_factory=dict)
    cut_edges: dict[int, int] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def internal_nnz(self) -> int:
        """Directed adjacency entries kept inside the shard."""
        if isinstance(self.data, GraphSet):
            return sum(g.nnz for g in self.data)
        return self.data.nnz

    @property
    def total_cut(self) -> int:
        """Directed cut entries this shard aggregates across the link."""
        return sum(self.cut_edges.values())

    @property
    def total_halo(self) -> int:
        """Unique remote vertices whose features this shard needs."""
        return sum(len(ids) for ids in self.halo.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Shard({self.index}: {self.num_nodes} nodes, "
            f"{self.internal_nnz} internal, {self.total_cut} cut)"
        )


@dataclass
class Partition:
    """An N-way split of one benchmark input, with boundary bookkeeping."""

    method: str
    seed: int
    num_parts: int
    kind: str  # "graph" | "graphset"
    assignment: np.ndarray
    shards: tuple[Shard, ...]
    num_items: int
    total_nnz: int

    # -- aggregate cut statistics ----------------------------------------

    @property
    def total_cut_edges(self) -> int:
        """Directed adjacency entries that cross a shard boundary."""
        return sum(shard.total_cut for shard in self.shards)

    @property
    def total_halo_nodes(self) -> int:
        """Sum over shards of unique remote vertices each must receive."""
        return sum(shard.total_halo for shard in self.shards)

    @property
    def edge_cut_fraction(self) -> float:
        """Cut entries over all directed entries (0 when edgeless)."""
        if self.total_nnz == 0:
            return 0.0
        return self.total_cut_edges / self.total_nnz

    @property
    def balance(self) -> float:
        """Largest shard size over the ideal size (1.0 = perfect)."""
        sizes = [shard.num_nodes for shard in self.shards]
        return max(sizes) / (self.num_items / self.num_parts)

    def fingerprint(self) -> dict[str, Any]:
        """The partition half of a multi-chip cache key (plain data)."""
        return {
            "method": self.method,
            "seed": self.seed,
            "chips": self.num_parts,
        }

    def spec(self, index: int) -> ShardSpec:
        """The :class:`ShardSpec` addressing shard ``index``."""
        return ShardSpec(chips=self.num_parts, index=index,
                         method=self.method, seed=self.seed)

    def validate(self) -> None:
        """Raise ``ValueError`` if any partition invariant is violated."""
        seen = np.concatenate([shard.nodes for shard in self.shards])
        if len(seen) != self.num_items or len(np.unique(seen)) != len(seen):
            raise ValueError("shards do not disjointly cover all items")
        internal = sum(shard.internal_nnz for shard in self.shards)
        if internal + self.total_cut_edges != self.total_nnz:
            raise ValueError(
                f"edge conservation violated: {internal} internal + "
                f"{self.total_cut_edges} cut != {self.total_nnz} entries"
            )
        for shard in self.shards:
            if shard.num_nodes == 0:
                raise ValueError(f"shard {shard.index} is empty")
            for owner, ids in shard.halo.items():
                if np.any(self.assignment[ids] != owner):
                    raise ValueError(
                        f"halo of shard {shard.index} misattributes owner "
                        f"{owner}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Partition({self.method} x{self.num_parts} seed={self.seed}: "
            f"{self.num_items} items, cut {self.total_cut_edges}/"
            f"{self.total_nnz})"
        )


def induced_subgraph(graph: Graph, nodes: np.ndarray, name: str) -> Graph:
    """The subgraph on ``nodes`` (ascending global ids), internal edges
    only, features sliced, vertex ids remapped to ``0..len(nodes)-1``.

    Features the source has not generated yet stay deferred
    (:meth:`Graph.select_node_features`): compiling a shard reads only
    their width."""
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[nodes] = True
    local = np.full(graph.num_nodes, -1, dtype=np.int64)
    local[nodes] = np.arange(len(nodes))

    rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    keep = mask[rows] & mask[graph.indices]
    src = local[rows[keep]]
    dst = local[graph.indices[keep]]
    counts = np.bincount(src, minlength=len(nodes))
    indptr = np.concatenate([[0], np.cumsum(counts)])
    sub = Graph(indptr, dst, len(nodes), name=name)
    sub.select_node_features(graph, nodes)
    if graph.edge_features is not None:
        sub.edge_features = graph.edge_features[keep]
    return sub


def _partition_single_graph(
    graph: Graph, parts: int, method: str, seed: int
) -> Partition:
    assignment = PARTITION_METHODS[method](graph, parts, seed)
    rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    row_part = assignment[rows]
    col_part = assignment[graph.indices]

    shards = []
    for part in range(parts):
        nodes = np.flatnonzero(assignment == part)
        data = induced_subgraph(
            graph, nodes, name=f"{graph.name}[shard {part}/{parts}]"
        )
        cut_mask = (row_part == part) & (col_part != part)
        remote = graph.indices[cut_mask]
        owners = col_part[cut_mask]
        halo: dict[int, np.ndarray] = {}
        cut_edges: dict[int, int] = {}
        for owner in np.unique(owners):
            owner_targets = remote[owners == owner]
            halo[int(owner)] = np.unique(owner_targets)
            cut_edges[int(owner)] = int(len(owner_targets))
        shards.append(Shard(index=part, nodes=nodes, data=data, halo=halo,
                            cut_edges=cut_edges))

    return Partition(
        method=method, seed=seed, num_parts=parts, kind="graph",
        assignment=assignment, shards=tuple(shards),
        num_items=graph.num_nodes, total_nnz=graph.nnz,
    )


def _partition_graph_set(
    data: GraphSet, parts: int, method: str, seed: int
) -> Partition:
    """Shard a graph set by whole graphs: largest-first onto the least
    loaded shard (by node count), deterministic tie-break by index.

    Molecules never straddle chips, so every method produces the same
    (zero-cut) assignment; ``method``/``seed`` still enter the
    fingerprint so multi-chip cache keys stay uniform across kinds.
    """
    _check_parts(len(data), parts)
    sizes = np.array([g.num_nodes for g in data.graphs], dtype=np.int64)
    order = np.argsort(-sizes, kind="stable")
    assignment = np.empty(len(data), dtype=np.int64)
    loads = np.zeros(parts, dtype=np.int64)
    counts = np.zeros(parts, dtype=np.int64)
    for g in order:
        # Least-loaded shard, preferring empty shards so all are used.
        part = int(np.argmin(np.where(counts == 0, -1, loads)))
        assignment[g] = part
        loads[part] += sizes[g]
        counts[part] += 1

    shards = []
    for part in range(parts):
        members = np.flatnonzero(assignment == part)
        subset = GraphSet(
            [data.graphs[int(g)] for g in members],
            name=f"{data.name}[shard {part}/{parts}]",
        )
        shards.append(Shard(index=part, nodes=members, data=subset))
    return Partition(
        method=method, seed=seed, num_parts=parts, kind="graphset",
        assignment=assignment, shards=tuple(shards),
        num_items=len(data), total_nnz=sum(g.nnz for g in data.graphs),
    )


def partition_graph(
    data: Graph | GraphSet,
    parts: int,
    method: str = DEFAULT_METHOD,
    seed: int = 0,
) -> Partition:
    """Split a benchmark input across ``parts`` chips.

    Deterministic for a given ``(data, parts, method, seed)``; the
    returned partition has been :meth:`~Partition.validate`\\ d.  Unknown
    methods raise :class:`~repro.errors.UnknownNameError` listing the
    valid names.
    """
    validate_method(method)
    if isinstance(data, GraphSet):
        partition = _partition_graph_set(data, parts, method, seed)
    else:
        partition = _partition_single_graph(data, parts, method, seed)
    partition.validate()
    return partition
