"""Seeded, deterministic graph-partitioning heuristics.

Two assignment methods ship built in, both returning a dense
``node -> shard`` array for a :class:`~repro.graphs.graph.Graph`:

* ``bfs`` — greedy level-order growth: vertices are taken in BFS order
  from a seeded start (restarting at the lowest unvisited vertex when a
  component is exhausted) and packed into balanced contiguous blocks.
  Cheap and cache-friendly; the baseline DGL-style "chunk the frontier"
  partitioner.
* ``metis`` — a METIS-style multilevel heuristic: coarsen by seeded
  heavy-edge matching, partition the coarsest graph by greedy BFS
  growth over vertex weights, then project back level by level with
  boundary Kernighan-Lin-style refinement under a balance constraint.
  Slower but materially lower edge cut on community-structured graphs.

Both are pure functions of ``(graph, parts, seed)``: the same inputs
always produce the identical assignment (no host randomness, no dict
iteration order), which is what lets partitions participate in
content-addressed cache keys.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import lookup
from repro.graphs.graph import Graph
from repro.graphs.ordering import csr_bfs_order

#: Stop coarsening once the graph is this many vertices per target part.
_COARSEN_TARGET_PER_PART = 16

#: Give up on a matching pass that shrinks the graph less than this.
_MIN_SHRINK = 0.95

#: Boundary-refinement passes per uncoarsening level.
_REFINE_PASSES = 4

#: Allowed imbalance: no part may exceed ``(1 + slack) * ideal`` weight.
_BALANCE_SLACK = 0.10


def _balanced_sizes(num_items: int, parts: int) -> np.ndarray:
    """Part sizes that differ by at most one and are all positive."""
    sizes = np.full(parts, num_items // parts, dtype=np.int64)
    sizes[: num_items % parts] += 1
    return sizes


def bfs_assignment(graph: Graph, parts: int, seed: int = 0) -> np.ndarray:
    """Greedy BFS/level-order partition into balanced contiguous blocks.

    The traversal starts at a seeded vertex; the resulting visit order is
    cut into ``parts`` blocks whose sizes differ by at most one, so every
    shard is non-empty whenever ``parts <= num_nodes``.
    """
    _check_parts(graph.num_nodes, parts)
    rng = np.random.default_rng(seed)
    start = int(rng.integers(graph.num_nodes))
    order = csr_bfs_order(graph.indptr, graph.indices, start)
    bounds = np.concatenate([[0], np.cumsum(_balanced_sizes(
        graph.num_nodes, parts))])
    assignment = np.empty(graph.num_nodes, dtype=np.int64)
    for part in range(parts):
        assignment[order[bounds[part]: bounds[part + 1]]] = part
    return assignment


# -- METIS-style multilevel heuristic ----------------------------------------


def _heavy_edge_matching(
    indptr: np.ndarray,
    indices: np.ndarray,
    edge_weights: np.ndarray,
    num_nodes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Seeded heavy-edge matching: ``match[v]`` is v's partner (or v).

    Vertices are visited in a seeded random order; each unmatched vertex
    pairs with its unmatched neighbour of maximum edge weight (lowest
    vertex id breaking ties), mirroring the HEM phase of METIS.
    """
    match = np.arange(num_nodes, dtype=np.int64)
    matched = np.zeros(num_nodes, dtype=bool)
    for v in rng.permutation(num_nodes):
        v = int(v)
        if matched[v]:
            continue
        best = -1
        best_weight = -1.0
        for e in range(int(indptr[v]), int(indptr[v + 1])):
            w = int(indices[e])
            if w == v or matched[w]:
                continue
            weight = float(edge_weights[e])
            if weight > best_weight or (weight == best_weight and w < best):
                best = w
                best_weight = weight
        if best >= 0:
            match[v] = best
            match[best] = v
            matched[v] = matched[best] = True
        else:
            matched[v] = True
    return match


def _coarsen(
    indptr: np.ndarray,
    indices: np.ndarray,
    edge_weights: np.ndarray,
    node_weights: np.ndarray,
    match: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse matched pairs into coarse vertices (vectorized).

    Returns ``(coarse_map, indptr, indices, edge_weights, node_weights)``
    where parallel edges are merged with summed weights and self loops
    dropped.
    """
    num_nodes = len(node_weights)
    pair_lead = np.minimum(np.arange(num_nodes), match)
    leads = np.unique(pair_lead)
    coarse_of_lead = np.full(num_nodes, -1, dtype=np.int64)
    coarse_of_lead[leads] = np.arange(len(leads))
    coarse_map = coarse_of_lead[pair_lead]

    coarse_nw = np.bincount(coarse_map, weights=node_weights,
                            minlength=len(leads)).astype(np.int64)

    rows = np.repeat(np.arange(num_nodes), np.diff(indptr))
    src = coarse_map[rows]
    dst = coarse_map[indices]
    keep = src != dst
    src, dst, ew = src[keep], dst[keep], edge_weights[keep]
    codes = src * len(leads) + dst
    unique_codes, inverse = np.unique(codes, return_inverse=True)
    merged_ew = np.bincount(inverse, weights=ew)
    c_src = unique_codes // len(leads)
    c_dst = unique_codes % len(leads)
    counts = np.bincount(c_src, minlength=len(leads))
    c_indptr = np.concatenate([[0], np.cumsum(counts)])
    return coarse_map, c_indptr, c_dst, merged_ew, coarse_nw


def _grow_initial(
    indptr: np.ndarray,
    indices: np.ndarray,
    node_weights: np.ndarray,
    parts: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy BFS growth over vertex weights on the coarsest graph."""
    num_nodes = len(node_weights)
    total = int(node_weights.sum())
    targets = _balanced_sizes(total, parts)
    start = int(rng.integers(num_nodes))
    order = csr_bfs_order(indptr, indices, start)
    assignment = np.empty(num_nodes, dtype=np.int64)
    part = 0
    filled = 0
    for position, v in enumerate(order):
        assignment[v] = part
        filled += int(node_weights[v])
        remaining_vertices = num_nodes - position - 1
        remaining_parts = parts - part - 1
        if part < parts - 1 and (
            filled >= targets[part] or remaining_vertices <= remaining_parts
        ):
            part += 1
            filled = 0
    return assignment


def _refine(
    indptr: np.ndarray,
    indices: np.ndarray,
    edge_weights: np.ndarray,
    node_weights: np.ndarray,
    assignment: np.ndarray,
    parts: int,
) -> None:
    """Boundary KL/FM-style refinement, in place and deterministic.

    Passes over the boundary vertices in index order; a vertex moves to
    the neighbouring part of maximum positive gain (cut-weight
    reduction) provided the move keeps every part within the balance
    envelope and leaves no part empty.
    """
    part_weight = np.bincount(assignment, weights=node_weights,
                              minlength=parts)
    part_count = np.bincount(assignment, minlength=parts)
    ideal = node_weights.sum() / parts
    max_weight = (1.0 + _BALANCE_SLACK) * ideal
    for _ in range(_REFINE_PASSES):
        moved = 0
        for v in range(len(assignment)):
            own = int(assignment[v])
            if part_count[own] <= 1:
                continue
            begin, end = int(indptr[v]), int(indptr[v + 1])
            if begin == end:
                continue
            neigh_parts = assignment[indices[begin:end]]
            weights = edge_weights[begin:end]
            if not np.any(neigh_parts != own):
                continue
            link = np.zeros(parts)
            np.add.at(link, neigh_parts, weights)
            internal = link[own]
            link[own] = -np.inf
            best = int(np.argmax(link))
            gain = link[best] - internal
            if gain <= 0:
                continue
            if part_weight[best] + node_weights[v] > max_weight:
                continue
            assignment[v] = best
            part_weight[own] -= node_weights[v]
            part_weight[best] += node_weights[v]
            part_count[own] -= 1
            part_count[best] += 1
            moved += 1
        if moved == 0:
            break


def _rebalance(
    indptr: np.ndarray,
    indices: np.ndarray,
    edge_weights: np.ndarray,
    node_weights: np.ndarray,
    assignment: np.ndarray,
    parts: int,
) -> None:
    """Push overweight parts back inside the balance envelope, in place.

    Refinement only blocks moves *into* heavy parts; a lopsided initial
    partition (coarse vertex weights are lumpy) can leave a part far over
    the envelope with no gain-positive way out.  This pass drains each
    overweight part explicitly: its vertices are considered in order of
    loosest internal attachment and handed to the best-linked part that
    stays within the envelope (falling back to the lightest part when the
    move still improves the pair balance — e.g. a single coarse vertex
    heavier than the envelope itself).
    """
    part_weight = np.bincount(assignment, weights=node_weights,
                              minlength=parts)
    part_count = np.bincount(assignment, minlength=parts)
    ideal = node_weights.sum() / parts
    max_weight = (1.0 + _BALANCE_SLACK) * ideal
    for part in np.argsort(-part_weight, kind="stable"):
        part = int(part)
        if part_weight[part] <= max_weight:
            continue
        verts = np.flatnonzero(assignment == part)
        internal = np.empty(len(verts))
        for i, v in enumerate(verts):
            begin, end = int(indptr[v]), int(indptr[v + 1])
            same = assignment[indices[begin:end]] == part
            internal[i] = edge_weights[begin:end][same].sum()
        for i in np.argsort(internal, kind="stable"):
            if part_weight[part] <= max_weight or part_count[part] <= 1:
                break
            v = int(verts[i])
            nw = node_weights[v]
            begin, end = int(indptr[v]), int(indptr[v + 1])
            link = np.zeros(parts)
            np.add.at(link, assignment[indices[begin:end]],
                      edge_weights[begin:end])
            link[part] = -np.inf
            fits = part_weight + nw <= max_weight
            fits[part] = False
            if np.any(fits):
                link[~fits] = -np.inf
                dest = int(np.argmax(link))
            else:
                dest = int(np.argmin(part_weight))
                if dest == part or part_weight[dest] + nw >= part_weight[part]:
                    continue
            assignment[v] = dest
            part_weight[part] -= nw
            part_weight[dest] += nw
            part_count[part] -= 1
            part_count[dest] += 1


def metis_assignment(graph: Graph, parts: int, seed: int = 0) -> np.ndarray:
    """METIS-style multilevel partition: coarsen, partition, refine.

    Deterministic for a given ``(graph, parts, seed)``.  Not the real
    METIS — a faithful-in-shape heuristic: seeded heavy-edge matching
    coarsening, greedy growth on the coarsest graph, boundary refinement
    on the way back up under a 10% balance envelope.
    """
    _check_parts(graph.num_nodes, parts)
    if parts == 1:
        return np.zeros(graph.num_nodes, dtype=np.int64)
    rng = np.random.default_rng(seed)

    indptr = graph.indptr
    indices = graph.indices
    edge_weights = np.ones(len(indices), dtype=np.float64)
    node_weights = np.ones(graph.num_nodes, dtype=np.int64)
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                       np.ndarray]] = []

    while len(node_weights) > max(parts * _COARSEN_TARGET_PER_PART, 2 * parts):
        match = _heavy_edge_matching(
            indptr, indices, edge_weights, len(node_weights), rng
        )
        coarse_map, c_indptr, c_indices, c_ew, c_nw = _coarsen(
            indptr, indices, edge_weights, node_weights, match
        )
        if len(c_nw) >= _MIN_SHRINK * len(node_weights) or len(c_nw) < parts:
            break
        levels.append((coarse_map, indptr, indices, edge_weights,
                       node_weights))
        indptr, indices = c_indptr, c_indices
        edge_weights, node_weights = c_ew, c_nw

    assignment = _grow_initial(indptr, indices, node_weights, parts, rng)
    _rebalance(indptr, indices, edge_weights, node_weights, assignment, parts)
    _refine(indptr, indices, edge_weights, node_weights, assignment, parts)

    while levels:
        coarse_map, indptr, indices, edge_weights, node_weights = levels.pop()
        assignment = assignment[coarse_map]
        _rebalance(indptr, indices, edge_weights, node_weights, assignment,
                   parts)
        _refine(indptr, indices, edge_weights, node_weights, assignment,
                parts)

    _repair_empty_parts(assignment, parts)
    return assignment


def _repair_empty_parts(assignment: np.ndarray, parts: int) -> None:
    """Guarantee every part is non-empty (moves from the largest part)."""
    counts = np.bincount(assignment, minlength=parts)
    for part in range(parts):
        while counts[part] == 0:
            donor = int(np.argmax(counts))
            victim = int(np.flatnonzero(assignment == donor)[-1])
            assignment[victim] = part
            counts[donor] -= 1
            counts[part] += 1


def _check_parts(num_items: int, parts: int) -> None:
    if parts < 1:
        raise ValueError(f"need at least one part, got {parts}")
    if parts > num_items:
        raise ValueError(
            f"cannot split {num_items} items into {parts} non-empty parts"
        )


#: Assignment methods, name -> callable(graph, parts, seed).
PARTITION_METHODS: dict[str, Callable[[Graph, int, int], np.ndarray]] = {
    "bfs": bfs_assignment,
    "metis": metis_assignment,
}

#: The default method (lowest edge cut of the built-ins).
DEFAULT_METHOD = "metis"


def method_names() -> tuple[str, ...]:
    """Partition-method names, listing order."""
    return tuple(PARTITION_METHODS)


def validate_method(name: str) -> str:
    """Return ``name`` if it names a method, else raise
    :class:`~repro.errors.UnknownNameError` listing the valid names."""
    lookup(PARTITION_METHODS, "partition method", name)
    return name
