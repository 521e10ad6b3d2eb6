"""Deterministic synthetic graph generators.

These generators substitute for the paper's real datasets (see DESIGN.md
section 2).  Each produces a graph with an *exact* node and undirected edge
count, and a degree-distribution character matching the source data:

* :func:`citation_graph` — truncated power-law degree distribution
  (Cora / Citeseer / Pubmed are citation networks).
* :func:`molecule_graph_set` — many small, nearly-tree-structured graphs
  (the QM9 molecules average ~12 atoms and ~12 bonds).
* :func:`collaboration_graph` — a dense, community-structured subgraph
  (the DBLP co-authorship extract used for PGNN has mean degree ~9.7).
* :func:`stress_graph` — fully vectorized power-law graphs at the
  100k–1M-node scale the partitioning layer targets; the named
  :data:`STRESS_PRESETS` sizes build via :func:`stress_preset`.

All generators are deterministic for a given seed.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import lookup
from repro.graphs.graph import Graph, GraphSet


def _coverage_pairs(order: np.ndarray) -> np.ndarray:
    """Consecutive vertices of the permutation ``order`` paired up as
    ``(low, high)`` rows, so covering every vertex costs few edges (the
    odd one out, if any, is left to the caller)."""
    return np.sort(order[: len(order) // 2 * 2].reshape(-1, 2), axis=1)


def _fill_pairs(
    pairs: np.ndarray,
    num_nodes: int,
    num_edges: int,
    draw_batch: Callable[[int], tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Extend the distinct ``(low, high)`` rows ``pairs`` to ``num_edges``.

    ``draw_batch(missing)`` draws one batch of candidate endpoints
    ``(us, vs, usable)``; of its usable pairs, the first occurrences not
    accepted yet join in draw order until the budget is met, and the
    next batch is drawn only while pairs are missing.  That is the
    outcome of accepting the candidates one by one, batch after batch.
    """
    chunks = [pairs]
    accepted = np.sort(pairs[:, 0] * num_nodes + pairs[:, 1])
    missing = num_edges - len(pairs)
    while missing > 0:
        us, vs, usable = draw_batch(missing)
        low = np.minimum(us, vs)[usable]
        high = np.maximum(us, vs)[usable]
        codes = low * num_nodes + high
        distinct, first = np.unique(codes, return_index=True)
        first = first[~np.isin(distinct, accepted, assume_unique=True)]
        first = np.sort(first)[:missing]
        chunks.append(np.stack([low[first], high[first]], axis=1))
        accepted = np.sort(np.concatenate([accepted, codes[first]]))
        missing -= len(first)
    return np.concatenate(chunks)


def _check_edge_budget(
    num_nodes: int, num_edges: int, ensure_covered: bool
) -> None:
    """Refuse an edge budget no simple undirected graph on ``num_nodes``
    vertices meets: more edges than distinct pairs, or, when every vertex
    must be ``ensure_covered``, fewer edges than covering takes."""
    max_edges = num_nodes * (num_nodes - 1) // 2
    if num_edges > max_edges:
        raise ValueError(
            f"cannot place {num_edges} unique edges among {num_nodes} nodes "
            f"(max {max_edges})"
        )
    if ensure_covered and num_edges < (num_nodes + 1) // 2:
        raise ValueError(
            f"{num_edges} edges cannot cover all {num_nodes} nodes"
        )


def _sample_unique_pairs(
    rng: np.random.Generator,
    weights: np.ndarray,
    num_edges: int,
    ensure_covered: bool = True,
) -> np.ndarray:
    """Sample ``num_edges`` distinct non-loop undirected pairs, Chung-Lu style.

    Endpoint ``i`` is drawn with probability proportional to ``weights[i]``,
    so the expected degree sequence follows ``weights``.  When
    ``ensure_covered`` is set, every vertex appears in at least one edge
    before the remaining budget is spent at random (citation datasets have
    no isolated papers).
    """
    num_nodes = len(weights)
    _check_edge_budget(num_nodes, num_edges, ensure_covered)
    prob = weights / weights.sum()
    pairs = np.empty((0, 2), dtype=np.int64)

    if ensure_covered:
        uncovered = rng.permutation(num_nodes)
        pairs = _coverage_pairs(uncovered)
        if num_nodes % 2 == 1:
            # The odd vertex is in no pair yet, so its pair is new.
            u = int(uncovered[-1])
            v = int(rng.choice(num_nodes, p=prob))
            while v == u:
                v = int(rng.choice(num_nodes, p=prob))
            pairs = np.concatenate([pairs, [[min(u, v), max(u, v)]]])

    def draw_batch(missing: int):
        batch = max(1024, 2 * missing)
        us = rng.choice(num_nodes, size=batch, p=prob)
        vs = rng.choice(num_nodes, size=batch, p=prob)
        return us, vs, us != vs

    return _fill_pairs(pairs, num_nodes, num_edges, draw_batch)


def _power_law_weights(
    rng: np.random.Generator, num_nodes: int, exponent: float, max_ratio: float
) -> np.ndarray:
    """Pareto-distributed vertex weights truncated at ``max_ratio`` x minimum."""
    raw = (1.0 - rng.random(num_nodes)) ** (-1.0 / (exponent - 1.0))
    return np.minimum(raw, max_ratio)


def citation_graph(
    num_nodes: int,
    num_edges: int,
    seed: int,
    exponent: float = 2.6,
    max_degree_ratio: float = 60.0,
    name: str = "citation",
) -> Graph:
    """A citation-network-like graph with exact node and edge counts.

    The degree distribution is a truncated power law (exponent ~2.6 fits
    published measurements of Cora-family citation networks), every vertex
    participates in at least one edge, and the graph is undirected.
    """
    rng = np.random.default_rng(seed)
    weights = _power_law_weights(rng, num_nodes, exponent, max_degree_ratio)
    edges = _sample_unique_pairs(rng, weights, num_edges, ensure_covered=True)
    return Graph.from_edge_list(num_nodes, edges, undirected=True, name=name)


def collaboration_graph(
    num_nodes: int,
    num_edges: int,
    seed: int,
    num_communities: int = 8,
    intra_boost: float = 12.0,
    name: str = "collaboration",
) -> Graph:
    """A DBLP-like collaboration subgraph with community structure.

    Vertices are split into communities and intra-community pairs are
    ``intra_boost`` times more likely, which yields the clustered, dense
    structure of co-authorship graphs (mean degree ~9.7 for DBLP_1).
    """
    _check_edge_budget(num_nodes, num_edges, ensure_covered=True)
    rng = np.random.default_rng(seed)
    community = rng.integers(0, num_communities, size=num_nodes)
    base = _power_law_weights(rng, num_nodes, exponent=2.2, max_ratio=20.0)

    prob = base / base.sum()
    # Cover every vertex first (no isolated authors in the extract).
    uncovered = rng.permutation(num_nodes)
    pairs = _coverage_pairs(uncovered)
    if num_nodes % 2 == 1:
        u = int(uncovered[-1])
        v = (u + 1) % num_nodes
        pairs = np.concatenate([pairs, [[min(u, v), max(u, v)]]])

    def draw_batch(missing: int):
        batch = max(1024, 4 * missing)
        us = rng.choice(num_nodes, size=batch, p=prob)
        vs = rng.choice(num_nodes, size=batch, p=prob)
        keep = rng.random(batch)
        # Thin cross-community pairs to create clustering.
        thinned = (community[us] != community[vs]) & (keep * intra_boost > 1.0)
        return us, vs, (us != vs) & ~thinned

    edges = _fill_pairs(pairs, num_nodes, num_edges, draw_batch)
    return Graph.from_edge_list(num_nodes, edges, undirected=True, name=name)


def stress_graph(
    num_nodes: int,
    num_edges: int,
    seed: int,
    exponent: float = 2.5,
    max_degree_ratio: float = 200.0,
    node_feature_dim: int = 0,
    name: str = "stress",
) -> Graph:
    """A large power-law graph with exact counts, built fully vectorized.

    Sized for the 100k–1M-node scale the partitioning layer targets:
    endpoints are drawn Chung-Lu style through an inverse-CDF lookup
    (``searchsorted`` over the cumulative weight distribution), pairs
    are deduplicated by sorting packed 64-bit codes and dropping
    repeats, and the exact edge budget is met by a seeded
    without-replacement draw from the collected unique pairs — every
    step array-at-a-time, so a million-edge graph builds in seconds.

    Unlike the citation generator, vertex coverage is *not* enforced:
    a handful of isolated vertices is representative of web-scale
    inputs, and every partition method handles them.
    """
    _check_edge_budget(num_nodes, num_edges, ensure_covered=False)
    rng = np.random.default_rng(seed)
    weights = _power_law_weights(rng, num_nodes, exponent, max_degree_ratio)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]

    codes = np.empty(0, dtype=np.int64)
    while len(codes) < num_edges:
        batch = 2 * (num_edges - len(codes)) + 1024
        us = np.searchsorted(cdf, rng.random(batch)).astype(np.int64)
        vs = np.searchsorted(cdf, rng.random(batch)).astype(np.int64)
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        valid = lo != hi
        codes = np.sort(
            np.concatenate([codes, lo[valid] * num_nodes + hi[valid]])
        )
        # The sorted distinct codes: what np.unique returns, without its
        # hash-based pass.
        keep = np.empty(len(codes), dtype=bool)
        keep[:1] = True
        np.not_equal(codes[1:], codes[:-1], out=keep[1:])
        codes = codes[keep]
    codes = rng.choice(codes, size=num_edges, replace=False)
    edges = np.stack([codes // num_nodes, codes % num_nodes], axis=1)
    node_features = None
    if node_feature_dim > 0:
        node_features = rng.standard_normal(
            (num_nodes, node_feature_dim)
        ).astype(np.float32)
    return Graph.from_edge_list(
        num_nodes, edges, undirected=True, node_features=node_features,
        name=name,
    )


#: Named stress-graph sizes: name -> (num_nodes, num_edges).  Mean degree
#: ~16 (directed), between Pubmed's ~9 and DBLP's ~19.
STRESS_PRESETS: dict[str, tuple[int, int]] = {
    "stress_100k": (100_000, 800_000),
    "stress_300k": (300_000, 2_400_000),
    "stress_1m": (1_000_000, 8_000_000),
}


def stress_preset(name: str, seed: int = 0) -> Graph:
    """Build a named :data:`STRESS_PRESETS` graph (deterministic)."""
    num_nodes, num_edges = lookup(STRESS_PRESETS, "stress preset", name)
    return stress_graph(num_nodes, num_edges, seed=seed, name=name)


def molecule_graph_set(
    num_graphs: int,
    total_nodes: int,
    total_edges: int,
    node_feature_dim: int,
    edge_feature_dim: int,
    seed: int,
    name: str = "molecules",
) -> GraphSet:
    """A set of small molecule-like graphs with exact aggregate counts.

    Every graph is connected (a random attachment tree plus optional
    ring-closing edges), matching the bonded structure of small organic
    molecules.  Node and edge features are seeded standard-normal dense
    matrices of the requested widths.
    """
    if total_nodes < 2 * num_graphs:
        raise ValueError("each molecule needs at least two atoms")
    rng = np.random.default_rng(seed)

    # Distribute nodes: base size for all, remainder spread over a random
    # subset so the size distribution is not a constant.
    base = total_nodes // num_graphs
    remainder = total_nodes - base * num_graphs
    sizes = np.full(num_graphs, base, dtype=np.int64)
    extra = rng.choice(num_graphs, size=remainder, replace=False)
    sizes[extra] += 1

    # Distribute edges: spanning tree per graph, leftover edges close rings.
    tree_edges = int(sizes.sum()) - num_graphs
    ring_budget = total_edges - tree_edges
    if ring_budget < 0:
        raise ValueError(
            f"total_edges={total_edges} below the {tree_edges} needed for "
            "connectivity"
        )
    rings = np.zeros(num_graphs, dtype=np.int64)
    capacity = sizes * (sizes - 1) // 2 - (sizes - 1)
    if ring_budget > capacity.sum():
        raise ValueError(
            f"total_edges={total_edges} above the {tree_edges} tree edges "
            f"plus the {int(capacity.sum())} ring edges the molecules hold"
        )
    while ring_budget > 0:
        g = int(rng.integers(num_graphs))
        if rings[g] < capacity[g]:
            rings[g] += 1
            ring_budget -= 1

    # Draw each molecule in turn (tree, rings, node then edge features);
    # the graphs are built afterwards, all from one sorted edge list.
    pairs: list[tuple[int, int]] = []
    node_features = []
    edge_features = []
    for g in range(num_graphs):
        n = int(sizes[g])
        # Vertex v attaches to a parent below it: one draw per vertex,
        # the same stream as a scalar rng.integers(v) call each.
        children = np.arange(1, n)
        edges = list(zip(rng.integers(children).tolist(), children.tolist()))
        seen = set(edges)
        placed = 0
        while placed < rings[g]:
            u = int(rng.integers(n))
            v = int(rng.integers(n))
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            edges.append(key)
            placed += 1
        pairs += edges
        node_features.append(
            rng.standard_normal((n, node_feature_dim)).astype(np.float32)
        )
        edge_features.append(
            rng.standard_normal((2 * len(edges), edge_feature_dim))
            .astype(np.float32) if edge_feature_dim > 0 else None
        )

    # Molecule g owns the contiguous vertex ids from first[g], so the
    # union's CSR rows of a molecule are that molecule's own CSR.
    first = np.concatenate([[0], np.cumsum(sizes)])
    edge_counts = sizes - 1 + rings
    union = Graph.from_edge_list(
        int(first[-1]),
        np.asarray(pairs, dtype=np.int64)
        + np.repeat(first[:-1], edge_counts)[:, None],
        undirected=True,
    )
    graphs = []
    for g in range(num_graphs):
        lo, hi = int(first[g]), int(first[g + 1])
        indptr = union.indptr[lo : hi + 1]
        graphs.append(Graph(
            indptr - indptr[0], union.indices[indptr[0] : indptr[-1]] - lo,
            hi - lo, node_features=node_features[g],
            edge_features=edge_features[g],
            undirected_edge_count=int(edge_counts[g]), name=f"{name}[{g}]",
        ))
    return GraphSet(graphs, name=name)
