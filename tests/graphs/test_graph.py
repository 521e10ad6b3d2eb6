"""Tests for the CSR graph data structure."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.graphs import Graph, GraphSet


def triangle() -> Graph:
    return Graph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)], undirected=True)


class TestConstruction:
    def test_from_edge_list_undirected_stores_both_directions(self):
        g = triangle()
        assert g.nnz == 6
        assert g.num_edges == 3

    def test_from_edge_list_directed(self):
        g = Graph.from_edge_list(3, [(0, 1), (1, 2)], undirected=False)
        assert g.nnz == 2
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(1)) == [2]
        assert list(g.neighbors(2)) == []

    def test_self_loop_stored_once_in_undirected_graph(self):
        g = Graph.from_edge_list(2, [(0, 0), (0, 1)], undirected=True)
        assert g.nnz == 3  # loop once + edge twice

    def test_bad_indptr_shape_rejected(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 1]), np.array([0]), num_nodes=3)

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 1]), np.array([5]), num_nodes=1)

    def test_decreasing_indptr_rejected(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 2, 1, 3]), np.array([0, 1, 2]), num_nodes=3)

    def test_feature_row_count_must_match_nodes(self):
        with pytest.raises(ValueError):
            Graph.from_edge_list(
                3, [(0, 1)], node_features=np.zeros((2, 4), dtype=np.float32)
            )

    def test_assigned_features_are_checked_like_constructed_ones(self):
        g = triangle()
        with pytest.raises(ValueError, match="2 rows, expected 3"):
            g.node_features = np.zeros((2, 4), dtype=np.float32)
        g.node_features = np.arange(6, dtype=np.float64).reshape(3, 2)
        assert g.node_features.dtype == np.float32
        assert g.node_features.tolist() == [[0, 1], [2, 3], [4, 5]]
        g.node_features = None
        assert g.num_node_features == 0


class TestAccessors:
    def test_neighbors_sorted_per_row(self):
        g = Graph.from_edge_list(4, [(2, 0), (2, 3), (2, 1)], undirected=True)
        assert list(g.neighbors(2)) == [0, 1, 3]

    def test_degrees_match_neighbor_counts(self):
        g = triangle()
        assert list(g.degrees()) == [2, 2, 2]

    def test_edge_slice_aligns_with_neighbors(self):
        g = triangle()
        sl = g.edge_slice(1)
        assert list(g.indices[sl]) == list(g.neighbors(1))

    def test_density_and_sparsity_sum_to_one(self):
        g = triangle()
        assert g.density() + g.sparsity() == pytest.approx(1.0)
        assert g.density() == pytest.approx(6 / 9)

    def test_density_with_self_loops(self):
        g = triangle()
        assert g.density(with_self_loops=True) == pytest.approx(1.0)

    def test_num_features_zero_without_features(self):
        g = triangle()
        assert g.num_node_features == 0
        assert g.num_edge_features == 0


class TestMatrixViews:
    def test_adjacency_is_symmetric_for_undirected(self):
        g = triangle()
        adj = g.adjacency().toarray()
        assert np.array_equal(adj, adj.T)

    def test_normalized_adjacency_rows_of_regular_graph(self):
        # Every vertex of the triangle has degree 3 after self-loops, so
        # each nonzero of D^-1/2 (A+I) D^-1/2 is exactly 1/3.
        g = triangle()
        norm = g.normalized_adjacency().toarray()
        assert np.allclose(norm[norm > 0], 1.0 / 3.0)

    def test_normalized_adjacency_preserves_constant_vector(self):
        # For any graph, rows of the normalized operator applied to the
        # degree^1/2 vector reproduce degree^1/2 (it is the eigenvector of
        # eigenvalue 1).
        g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        norm = g.normalized_adjacency()
        deg = np.asarray(
            (g.adjacency() + np.eye(4, dtype=np.float32)).sum(axis=1)
        ).ravel()
        v = np.sqrt(deg)
        assert np.allclose(norm @ v, v, atol=1e-5)

    def test_matrix_views_are_scipy_csr(self):
        g = triangle()
        for matrix in (g.adjacency(), g.normalized_adjacency()):
            assert sp.issparse(matrix) and matrix.format == "csr"
            assert matrix.dtype == np.float32 and matrix.shape == (3, 3)

    def test_validate_accepts_clean_graph(self):
        triangle().validate()


def test_compiling_and_simulating_loads_no_scipy():
    # Only the models' functional forward passes need scipy's sparse
    # matrices; importing it costs a process that compiles, simulates
    # and keys a point about 0.14 s and 13 MB (2-core host).
    script = textwrap.dedent("""
        import sys
        import repro.cli
        from repro.accel.config import CPU_ISO_BW
        from repro.exp.cache import point_key
        from repro.models.registry import benchmark_by_key, load_benchmark
        from repro.runtime.compiler import compile_model
        from repro.runtime.engine import simulate

        model, data = load_benchmark(benchmark_by_key("gcn-cora"))
        simulate(compile_model(model, data), CPU_ISO_BW)
        point_key("gcn-cora", CPU_ISO_BW)
        print(sorted(name for name in sys.modules
                     if name.partition(".")[0] == "scipy"))
    """)
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestGraphSet:
    def test_aggregate_counts(self):
        gs = GraphSet([triangle(), triangle()], name="pair")
        assert gs.total_nodes == 6
        assert gs.total_edges == 6
        assert len(gs) == 2

    def test_iteration_and_indexing(self):
        g = triangle()
        gs = GraphSet([g])
        assert gs[0] is g
        assert list(gs) == [g]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            GraphSet([])
