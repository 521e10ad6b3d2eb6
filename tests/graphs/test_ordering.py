"""Tests for vertex orderings and relabeling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    Graph,
    bfs_order,
    citation_graph,
    degree_order,
    relabel,
)


@pytest.fixture
def graph():
    g = citation_graph(60, 140, seed=6)
    g.node_features = np.random.default_rng(0).standard_normal(
        (60, 5)
    ).astype(np.float32)
    return g


class TestDegreeOrder:
    def test_is_permutation(self, graph):
        order = degree_order(graph)
        assert sorted(order.tolist()) == list(range(60))

    def test_descending_puts_hubs_first(self, graph):
        order = degree_order(graph)
        degrees = graph.degrees()[order]
        assert all(a >= b for a, b in zip(degrees, degrees[1:]))

    def test_ascending(self, graph):
        order = degree_order(graph, descending=False)
        degrees = graph.degrees()[order]
        assert all(a <= b for a, b in zip(degrees, degrees[1:]))


class TestBfsOrder:
    def test_is_permutation(self, graph):
        order = bfs_order(graph, seed=3)
        assert sorted(order.tolist()) == list(range(60))

    def test_starts_at_seed(self, graph):
        assert bfs_order(graph, seed=7)[0] == 7

    def test_covers_disconnected_components(self):
        g = Graph.from_edge_list(6, [(0, 1), (2, 3), (4, 5)])
        order = bfs_order(g, seed=4)
        assert sorted(order.tolist()) == list(range(6))
        assert order[0] == 4

    def test_invalid_seed_rejected(self, graph):
        with pytest.raises(ValueError):
            bfs_order(graph, seed=100)

    def test_neighbors_visited_adjacently(self):
        # A path graph visited from one end is visited in path order.
        g = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert bfs_order(g, seed=0).tolist() == [0, 1, 2, 3, 4]


class TestRelabel:
    def test_identity_preserves_structure(self, graph):
        same = relabel(graph, np.arange(60))
        assert np.array_equal(same.indptr, graph.indptr)
        assert np.array_equal(same.indices, graph.indices)
        assert np.array_equal(same.node_features, graph.node_features)

    def test_preserves_counts(self, graph):
        order = degree_order(graph)
        new = relabel(graph, order)
        assert new.num_nodes == graph.num_nodes
        assert new.num_edges == graph.num_edges
        assert new.nnz == graph.nnz

    def test_degree_multiset_preserved(self, graph):
        new = relabel(graph, bfs_order(graph))
        assert sorted(new.degrees()) == sorted(graph.degrees())

    def test_features_follow_vertices(self, graph):
        order = degree_order(graph)
        new = relabel(graph, order)
        assert np.array_equal(new.node_features[0], graph.node_features[order[0]])

    def test_non_permutation_rejected(self, graph):
        with pytest.raises(ValueError):
            relabel(graph, np.zeros(60, dtype=int))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_permutations_preserve_adjacency(self, seed):
        g = citation_graph(30, 70, seed=1)
        rng = np.random.default_rng(seed)
        order = rng.permutation(30)
        new = relabel(g, order)
        new_id = np.empty(30, dtype=int)
        new_id[order] = np.arange(30)
        for v in range(30):
            expected = sorted(new_id[g.neighbors(v)].tolist())
            assert sorted(new.neighbors(new_id[v]).tolist()) == expected


@pytest.mark.slow
class TestOrderingAblation:
    """Vertex ids drive both the Algorithm 1 queue order and the
    placement interleave, so renumbering a graph is a free scheduling
    knob.  GCN Pubmed on the 8-tile GPU iso-BW mesh: natural ids with
    round-robin placement (the default), degree-descending ids (hubs
    spread first), and BFS ids with range blocks (neighbourhoods
    co-located per tile)."""

    def test_renumbering_stays_in_one_regime(self):
        from repro.accel import GPU_ISO_BW, Accelerator, RangePlacement
        from repro.eval.accelerator import run_config
        from repro.graphs import pubmed
        from repro.models import benchmark_model
        from repro.models.registry import benchmark_by_key
        from repro.runtime import compile_model
        from repro.runtime.engine import RuntimeEngine

        graph = pubmed()
        model = benchmark_model(benchmark_by_key("gcn-pubmed"))

        def run_renumbered(order, placement=None):
            program = compile_model(model, relabel(graph, order))
            accel = Accelerator(GPU_ISO_BW, placement=placement)
            return RuntimeEngine(accel).run(program)

        reports = {
            "natural+rr": run_config("gcn-pubmed", GPU_ISO_BW),
            "degree+rr": run_renumbered(degree_order(graph)),
            "bfs+range": run_renumbered(bfs_order(graph), RangePlacement(
                num_vertices=graph.num_nodes, num_tiles=8, num_memories=8,
            )),
        }
        print("\nVertex ordering ablation (GCN Pubmed, GPU iso-BW):")
        for name, report in reports.items():
            print(f"  {name:12s}: {report.latency_ms:.3f} ms "
                  f"(peak NoC link {report.noc_peak_link_utilization:.0%})")
        latencies = [report.latency_ns for report in reports.values()]
        assert max(latencies) < 2.5 * min(latencies)
        # Round-robin soaks up the power-law hub imbalance at least as
        # well as contiguous blocks.
        assert (
            reports["natural+rr"].latency_ns
            <= 1.2 * reports["bfs+range"].latency_ns
        )
