"""Tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.graphs import citation_graph, collaboration_graph, molecule_graph_set
from repro.graphs.generators import _fill_pairs


class TestFillPairs:
    """Each batch keeps what accepting its pairs one by one would keep."""

    def test_first_new_pairs_in_draw_order_up_to_the_budget(self):
        batches = [
            # (1, 0) is accepted already, (2, 3) repeats, (3, 3) is a
            # loop; the budget is met at (4, 2), so (3, 1) is dropped.
            ([1, 2, 2, 3, 0, 4, 3], [0, 3, 3, 3, 4, 2, 1]),
        ]
        asked = []

        def draw_batch(missing):
            asked.append(missing)
            us, vs = map(np.array, batches.pop(0))
            return us, vs, us != vs

        pairs = _fill_pairs(np.array([[0, 1]]), 5, 4, draw_batch)
        assert pairs.tolist() == [[0, 1], [2, 3], [0, 4], [2, 4]]
        assert asked == [3]

    def test_draws_again_only_while_pairs_are_missing(self):
        batches = [([0, 1, 0], [1, 0, 1]), ([2, 0, 1], [0, 2, 2])]
        asked = []

        def draw_batch(missing):
            asked.append(missing)
            us, vs = map(np.array, batches.pop(0))
            return us, vs, np.ones(len(us), dtype=bool)

        pairs = _fill_pairs(np.empty((0, 2), dtype=np.int64), 3, 3,
                            draw_batch)
        assert pairs.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert asked == [3, 2] and not batches


def test_one_call_draws_what_scalar_tree_draws_would():
    # molecule_graph_set draws every vertex's parent below it in one
    # rng.integers(np.arange(1, n)) call; its digest cell relies on that
    # call taking the stream exactly as n - 1 scalar draws do.
    for seed in range(50):
        batch = np.random.default_rng(seed)
        scalar = np.random.default_rng(seed)
        parents = batch.integers(np.arange(1, 30))
        assert parents.tolist() == [int(scalar.integers(v))
                                    for v in range(1, 30)]
        assert batch.random() == scalar.random()


class TestCitationGraph:
    def test_exact_node_and_edge_counts(self):
        g = citation_graph(500, 1200, seed=7)
        assert g.num_nodes == 500
        assert g.num_edges == 1200
        assert g.nnz == 2400  # undirected, no self loops

    def test_deterministic_for_seed(self):
        a = citation_graph(300, 700, seed=11)
        b = citation_graph(300, 700, seed=11)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.indptr, b.indptr)

    def test_different_seeds_differ(self):
        a = citation_graph(300, 700, seed=11)
        b = citation_graph(300, 700, seed=12)
        assert not np.array_equal(a.indices, b.indices)

    def test_no_isolated_vertices(self):
        g = citation_graph(401, 900, seed=3)
        assert g.degrees().min() >= 1

    def test_no_self_loops_or_duplicates(self):
        g = citation_graph(200, 500, seed=5)
        for v in range(g.num_nodes):
            row = g.neighbors(v)
            assert v not in row
            assert len(row) == len(set(row.tolist()))

    def test_degree_distribution_is_skewed(self):
        # Power-law-ish: the maximum degree should be several times the mean.
        g = citation_graph(2000, 5000, seed=1)
        degrees = g.degrees()
        assert degrees.max() > 4 * degrees.mean()

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            citation_graph(4, 100, seed=0)

    def test_too_few_edges_for_coverage_rejected(self):
        with pytest.raises(ValueError):
            citation_graph(100, 10, seed=0)


class TestCollaborationGraph:
    def test_exact_counts(self):
        g = collaboration_graph(547, 2654, seed=9)
        assert g.num_nodes == 547
        assert g.num_edges == 2654

    def test_dense_mean_degree(self):
        g = collaboration_graph(547, 2654, seed=9)
        assert g.degrees().mean() == pytest.approx(2 * 2654 / 547, rel=0.01)

    def test_no_isolated_vertices(self):
        g = collaboration_graph(101, 500, seed=2)
        assert g.degrees().min() >= 1

    def test_deterministic(self):
        a = collaboration_graph(100, 400, seed=4)
        b = collaboration_graph(100, 400, seed=4)
        assert np.array_equal(a.indices, b.indices)

    @pytest.mark.parametrize("num_nodes, num_edges", [(5, 11), (10, 2)],
                             ids=["above-max", "below-cover"])
    def test_impossible_budget_rejected_before_any_draw(
        self, num_nodes, num_edges, monkeypatch
    ):
        """As in citation_graph: 5 nodes have only 10 distinct pairs, and
        2 edges cannot cover 10 nodes."""
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before checking the edge budget")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError):
            collaboration_graph(num_nodes, num_edges, seed=0)


class TestMoleculeGraphSet:
    def test_exact_aggregate_counts(self):
        gs = molecule_graph_set(
            num_graphs=50, total_nodes=640, total_edges=660,
            node_feature_dim=13, edge_feature_dim=5, seed=8,
        )
        assert len(gs) == 50
        assert gs.total_nodes == 640
        assert gs.total_edges == 660

    def test_every_molecule_is_connected(self):
        import networkx as nx

        gs = molecule_graph_set(
            num_graphs=20, total_nodes=250, total_edges=260,
            node_feature_dim=4, edge_feature_dim=2, seed=8,
        )
        for g in gs:
            nxg = nx.from_scipy_sparse_array(g.adjacency())
            assert nx.is_connected(nxg)

    def test_feature_widths(self):
        gs = molecule_graph_set(
            num_graphs=5, total_nodes=60, total_edges=62,
            node_feature_dim=13, edge_feature_dim=5, seed=8,
        )
        assert gs.num_node_features == 13
        assert gs.num_edge_features == 5
        for g in gs:
            assert g.edge_features.shape == (g.nnz, 5)

    def test_edge_budget_below_tree_requirement_rejected(self):
        with pytest.raises(ValueError):
            molecule_graph_set(
                num_graphs=10, total_nodes=100, total_edges=50,
                node_feature_dim=1, edge_feature_dim=0, seed=0,
            )

    def test_ring_budget_above_capacity_rejected(self):
        # Ten 3-atom molecules hold 20 tree edges and one ring edge each.
        kwargs = dict(num_graphs=10, total_nodes=30, node_feature_dim=1,
                      edge_feature_dim=0, seed=0)
        assert molecule_graph_set(total_edges=30, **kwargs).total_edges == 30
        with pytest.raises(ValueError, match="ring"):
            molecule_graph_set(total_edges=31, **kwargs)
        # Ten 2-atom molecules have no room for a ring at all.
        with pytest.raises(ValueError, match="ring"):
            molecule_graph_set(
                num_graphs=10, total_nodes=20, total_edges=25,
                node_feature_dim=1, edge_feature_dim=0, seed=0,
            )

    def test_two_atoms_minimum(self):
        with pytest.raises(ValueError):
            molecule_graph_set(
                num_graphs=10, total_nodes=15, total_edges=20,
                node_feature_dim=1, edge_feature_dim=0, seed=0,
            )

    def test_deterministic(self):
        kwargs = dict(
            num_graphs=8, total_nodes=100, total_edges=104,
            node_feature_dim=3, edge_feature_dim=1, seed=21,
        )
        a = molecule_graph_set(**kwargs)
        b = molecule_graph_set(**kwargs)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.indices, gb.indices)
            assert np.array_equal(ga.node_features, gb.node_features)
