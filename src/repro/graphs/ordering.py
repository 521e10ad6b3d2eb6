"""Vertex orderings and relabelings (extension).

The runtime's work queues (Algorithm 1) process vertices in queue order,
and vertex ids drive placement, so the *numbering* of a graph is a free
scheduling knob.  This module provides the classic orderings:

* :func:`degree_order` — hubs first (or last),
* :func:`bfs_order` — breadth-first from a seed, clustering neighbourhoods
  into contiguous id ranges (:func:`csr_bfs_order` on raw CSR arrays,
  which the partitioners use too),
* :func:`relabel` — rebuild a graph under a new numbering, so orderings
  compose with :class:`~repro.accel.placement.RangePlacement`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graphs.graph import Graph


def degree_order(graph: Graph, descending: bool = True) -> np.ndarray:
    """Vertex ids sorted by degree (stable)."""
    degrees = graph.degrees()
    order = np.argsort(-degrees if descending else degrees, kind="stable")
    return order.astype(np.int64)


def bfs_order(graph: Graph, seed: int = 0) -> np.ndarray:
    """Breadth-first visitation order covering every component.

    Starts from ``seed``; when a component is exhausted, continues from
    the smallest unvisited vertex, so the result is a permutation even on
    disconnected graphs.
    """
    if not 0 <= seed < graph.num_nodes:
        raise ValueError(f"seed {seed} outside graph")
    return csr_bfs_order(graph.indptr, graph.indices, seed)


def csr_bfs_order(
    indptr: np.ndarray, indices: np.ndarray, start: int
) -> np.ndarray:
    """:func:`bfs_order` of the CSR adjacency ``(indptr, indices)``:
    every vertex, from ``start``, restarting at the lowest unvisited
    vertex when a component is exhausted."""
    num_nodes = len(indptr) - 1
    order = np.empty(num_nodes, dtype=np.int64)
    visited = np.zeros(num_nodes, dtype=bool)
    visited[start] = True
    queue: deque[int] = deque([start])
    pos = next_restart = 0
    while pos < num_nodes:
        if not queue:
            while visited[next_restart]:
                next_restart += 1
            visited[next_restart] = True
            queue.append(next_restart)
        v = queue.popleft()
        order[pos] = v
        pos += 1
        for w in indices[indptr[v]: indptr[v + 1]]:
            if not visited[w]:
                visited[w] = True
                queue.append(int(w))
    return order


def relabel(graph: Graph, order: np.ndarray) -> Graph:
    """A copy of ``graph`` where old vertex ``order[i]`` becomes ``i``.

    Features follow their vertices.  ``order`` must be a permutation of
    the vertex ids.
    """
    order = np.asarray(order, dtype=np.int64)
    if sorted(order.tolist()) != list(range(graph.num_nodes)):
        raise ValueError("order must be a permutation of all vertex ids")
    new_id = np.empty(graph.num_nodes, dtype=np.int64)
    new_id[order] = np.arange(graph.num_nodes)
    dst = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    src = graph.indices
    mask = dst <= src  # keep one direction of each undirected edge
    edges = np.stack([new_id[dst[mask]], new_id[src[mask]]], axis=1)
    features = None
    if graph.node_features is not None:
        features = graph.node_features[order]
    return Graph.from_edge_list(
        graph.num_nodes,
        edges,
        undirected=True,
        node_features=features,
        name=graph.name,
    )
