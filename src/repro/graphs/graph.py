"""Core graph data structures.

:class:`Graph` stores a directed CSR adjacency (undirected graphs store both
edge directions) plus optional node and edge features.  :class:`GraphSet`
groups many small graphs (the QM9 workload) while exposing the aggregate
statistics Table V reports.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np
import scipy.sparse as sp


def random_node_features(num_nodes: int, width: int, seed: int) -> np.ndarray:
    """Seeded standard-normal ``(num_nodes, width)`` float32 features."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((num_nodes, width)).astype(np.float32)


class Graph:
    """A graph in CSR form with optional dense feature matrices.

    Parameters
    ----------
    indptr, indices:
        Standard CSR row-pointer / column-index arrays for the (directed)
        adjacency.  For an undirected graph both directions are present.
    num_nodes:
        Number of vertices.
    node_features:
        Optional ``(num_nodes, F)`` float32 array.  Seeded random
        features can instead be deferred to their first read
        (:meth:`defer_node_features`).
    edge_features:
        Optional ``(nnz, Fe)`` float32 array aligned with ``indices``.
    undirected_edge_count:
        The number of *undirected* edges this graph was built from, used
        for Table V style reporting.  Defaults to ``nnz`` (directed count).
    name:
        Human-readable identifier.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        num_nodes: int,
        node_features: np.ndarray | None = None,
        edge_features: np.ndarray | None = None,
        undirected_edge_count: int | None = None,
        name: str = "",
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.num_nodes = int(num_nodes)
        self.name = name
        if self.indptr.shape != (self.num_nodes + 1,):
            raise ValueError(
                f"indptr must have shape ({self.num_nodes + 1},), "
                f"got {self.indptr.shape}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.num_nodes
        ):
            raise ValueError("indices contain out-of-range vertex ids")
        #: ``(num_rows, width, seed, selection)`` of features not
        #: generated yet: the first read keeps rows ``selection`` of
        #: ``random_node_features(num_rows, width, seed)`` (every row when
        #: ``selection`` is None).
        self._deferred_features: tuple | None = None
        self.node_features = node_features
        self.edge_features = None
        if edge_features is not None:
            edge_features = np.asarray(edge_features, dtype=np.float32)
            if edge_features.shape[0] != len(self.indices):
                raise ValueError(
                    f"edge_features has {edge_features.shape[0]} rows, "
                    f"expected {len(self.indices)}"
                )
            self.edge_features = edge_features
        self._undirected_edge_count = undirected_edge_count

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_edge_list(
        cls,
        num_nodes: int,
        edges: Sequence[tuple[int, int]] | np.ndarray,
        undirected: bool = True,
        node_features: np.ndarray | None = None,
        name: str = "",
    ) -> "Graph":
        """Build a graph from ``(src, dst)`` pairs.

        With ``undirected=True`` each pair is inserted in both directions
        (self-loops once), and the undirected edge count is recorded for
        Table V style reporting.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        undirected_count = len(edges)
        if undirected:
            non_loops = edges[edges[:, 0] != edges[:, 1]]
            edges = np.concatenate([edges, non_loops[:, ::-1]], axis=0)
        src = edges[:, 0]
        dst = edges[:, 1]
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        counts = np.bincount(src, minlength=num_nodes)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(
            indptr,
            dst,
            num_nodes,
            node_features=node_features,
            undirected_edge_count=undirected_count if undirected else None,
            name=name,
        )

    # -- features ---------------------------------------------------------

    @property
    def node_features(self) -> np.ndarray | None:
        """The ``(num_nodes, F)`` float32 features, or ``None``.

        Deferred features are generated on the first read.
        """
        if self._deferred_features is not None:
            num_rows, width, seed, selection = self._deferred_features
            features = random_node_features(num_rows, width, seed)
            if selection is not None:
                features = features[selection]
            self._node_features = features
            self._deferred_features = None
        return self._node_features

    @node_features.setter
    def node_features(self, features: np.ndarray | None) -> None:
        if features is not None:
            features = np.asarray(features, dtype=np.float32)
            if features.shape[0] != self.num_nodes:
                raise ValueError(
                    f"node_features has {features.shape[0]} rows, "
                    f"expected {self.num_nodes}"
                )
        self._deferred_features = None
        self._node_features = features

    def defer_node_features(self, width: int, seed: int) -> None:
        """Use :func:`random_node_features` of ``width`` and ``seed``,
        generated on the first read of :attr:`node_features`.

        Simulations read only the width, so they never pay for the
        values; the deferral is plain data, so the graph still pickles.
        """
        self._node_features = None
        self._deferred_features = (self.num_nodes, int(width), int(seed),
                                   None)

    def select_node_features(self, source: "Graph", rows: np.ndarray) -> None:
        """Use ``source.node_features[rows]`` as this graph's features.

        Deferred features stay deferred: the row selection is recorded
        as plain data and applied on the first read, which returns the
        same values bit for bit.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) != self.num_nodes:
            raise ValueError(
                f"selected {len(rows)} feature rows, expected "
                f"{self.num_nodes}"
            )
        if source._deferred_features is None:
            features = source._node_features
            self.node_features = None if features is None else features[rows]
            return
        num_rows, width, seed, selection = source._deferred_features
        if selection is not None:
            rows = selection[rows]
        self._node_features = None
        self._deferred_features = (num_rows, width, seed, rows)

    # -- basic properties -----------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored (directed) adjacency entries."""
        return len(self.indices)

    @property
    def num_edges(self) -> int:
        """Undirected edge count if known, otherwise the directed count."""
        if self._undirected_edge_count is not None:
            return self._undirected_edge_count
        return self.nnz

    @property
    def num_node_features(self) -> int:
        """Width of the node feature matrix (0 if absent)."""
        if self._deferred_features is not None:
            return self._deferred_features[1]
        features = self._node_features
        return 0 if features is None else features.shape[1]

    @property
    def num_edge_features(self) -> int:
        """Width of the edge feature matrix (0 if absent)."""
        return 0 if self.edge_features is None else self.edge_features.shape[1]

    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (equal to in-degree when undirected)."""
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Column indices adjacent to vertex ``v``."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_slice(self, v: int) -> slice:
        """Slice into ``indices``/``edge_features`` for vertex ``v``'s edges."""
        return slice(int(self.indptr[v]), int(self.indptr[v + 1]))

    def density(self, with_self_loops: bool = False) -> float:
        """Fraction of nonzero entries in the dense adjacency."""
        nnz = self.nnz + (self.num_nodes if with_self_loops else 0)
        return nnz / float(self.num_nodes) ** 2

    def sparsity(self, with_self_loops: bool = False) -> float:
        """Fraction of zero entries in the dense adjacency (paper Sec. II)."""
        return 1.0 - self.density(with_self_loops=with_self_loops)

    # -- matrix views ----------------------------------------------------

    def adjacency(self) -> sp.csr_matrix:
        """The stored adjacency as a scipy CSR matrix of float32 ones."""
        data = np.ones(self.nnz, dtype=np.float32)
        return sp.csr_matrix(
            (data, self.indices, self.indptr),
            shape=(self.num_nodes, self.num_nodes),
        )

    def normalized_adjacency(self, add_self_loops: bool = True) -> sp.csr_matrix:
        """GCN propagation operator ``D^-1/2 (A + I) D^-1/2``.

        This is the matrix the paper maps onto the DNN accelerator as dense
        convolution weights in Section II.
        """
        adj = self.adjacency()
        if add_self_loops:
            adj = adj + sp.identity(self.num_nodes, dtype=np.float32, format="csr")
        deg = np.asarray(adj.sum(axis=1)).ravel()
        inv_sqrt = np.zeros_like(deg)
        nonzero = deg > 0
        inv_sqrt[nonzero] = 1.0 / np.sqrt(deg[nonzero])
        d_mat = sp.diags(inv_sqrt).astype(np.float32)
        return (d_mat @ adj @ d_mat).tocsr()

    def validate(self) -> None:
        """Raise ``ValueError`` if internal invariants are violated."""
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr not monotone")
        for v in range(self.num_nodes):
            row = self.neighbors(v)
            if len(row) != len(np.unique(row)):
                raise ValueError(f"duplicate edges at vertex {v}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, features={self.num_node_features})"
        )


class GraphSet:
    """An ordered collection of graphs treated as one workload (QM9_1000)."""

    def __init__(self, graphs: Sequence[Graph], name: str = "") -> None:
        if not graphs:
            raise ValueError("GraphSet requires at least one graph")
        self.graphs = list(graphs)
        self.name = name

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.graphs)

    def __getitem__(self, idx: int) -> Graph:
        return self.graphs[idx]

    @property
    def total_nodes(self) -> int:
        """Sum of node counts across the set (Table V 'Total Nodes')."""
        return sum(g.num_nodes for g in self.graphs)

    @property
    def total_edges(self) -> int:
        """Sum of undirected edge counts across the set (Table V)."""
        return sum(g.num_edges for g in self.graphs)

    @property
    def num_node_features(self) -> int:
        """Node feature width (uniform across the set)."""
        return self.graphs[0].num_node_features

    @property
    def num_edge_features(self) -> int:
        """Edge feature width (uniform across the set)."""
        return self.graphs[0].num_edge_features

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphSet(name={self.name!r}, graphs={len(self.graphs)}, "
            f"nodes={self.total_nodes}, edges={self.total_edges})"
        )
