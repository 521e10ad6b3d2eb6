"""Property tests: the :class:`Partition` invariants hold for any input.

Hypothesis drives seeded generator graphs through every registered
partition method and checks the structural contract the multi-chip
system (and its communication pricing) relies on:

* the shards disjointly cover every node;
* every directed cut entry is counted in exactly one boundary map, and
  per-shard internal edges plus the total cut conserve the graph's
  directed entry count exactly;
* halo sets are the unique remote vertices behind the cut entries
  (``halo <= cut`` per owner pair, ownership correctly attributed);
* the same ``(graph, parts, method, seed)`` always reproduces the
  identical assignment.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnknownNameError
from repro.graphs.generators import (
    STRESS_PRESETS,
    citation_graph,
    molecule_graph_set,
    stress_graph,
)
from repro.models.workload import BYTES_PER_VALUE, EdgeAggregation, ModelWorkload
from repro.partition import (
    PARTITION_METHODS,
    ShardSpec,
    communication_volume_bytes,
    edge_volume_bytes,
    halo_volume_bytes,
    method_names,
    partition_graph,
    validate_method,
)

METHODS = sorted(PARTITION_METHODS)

@st.composite
def cases(draw):
    num_nodes = draw(st.integers(10, 60))
    num_edges = draw(st.integers(num_nodes, 2 * num_nodes))
    graph = citation_graph(
        num_nodes, num_edges, seed=draw(st.integers(0, 2**32 - 1))
    )
    parts = draw(st.integers(1, 5))
    method = draw(st.sampled_from(METHODS))
    seed = draw(st.integers(0, 1_000))
    return graph, parts, method, seed


cases = cases()


def brute_force_cut(graph, assignment):
    """Directed cut entries per ``(owner shard, remote shard)`` pair,
    recounted straight off the adjacency — no partition bookkeeping."""
    rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    counts = {}
    for u, v in zip(rows, graph.indices):
        a, b = int(assignment[u]), int(assignment[v])
        if a != b:
            counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


@given(cases)
@settings(max_examples=60, deadline=None)
def test_shards_disjointly_cover_all_nodes(case):
    graph, parts, method, seed = case
    partition = partition_graph(graph, parts, method=method, seed=seed)
    seen = np.concatenate([shard.nodes for shard in partition.shards])
    assert len(seen) == graph.num_nodes
    assert len(np.unique(seen)) == graph.num_nodes
    assert all(shard.num_nodes > 0 for shard in partition.shards)


@given(cases)
@settings(max_examples=60, deadline=None)
def test_every_cut_edge_is_counted_exactly_once(case):
    graph, parts, method, seed = case
    partition = partition_graph(graph, parts, method=method, seed=seed)
    expected = brute_force_cut(graph, partition.assignment)
    actual = {
        (shard.index, owner): count
        for shard in partition.shards
        for owner, count in shard.cut_edges.items()
    }
    assert actual == expected
    assert partition.total_cut_edges == sum(expected.values())


@given(cases)
@settings(max_examples=60, deadline=None)
def test_edge_count_conservation(case):
    graph, parts, method, seed = case
    partition = partition_graph(graph, parts, method=method, seed=seed)
    internal = sum(shard.internal_nnz for shard in partition.shards)
    assert internal + partition.total_cut_edges == graph.nnz


@given(cases)
@settings(max_examples=60, deadline=None)
def test_halo_is_the_unique_remote_endpoint_set(case):
    graph, parts, method, seed = case
    partition = partition_graph(graph, parts, method=method, seed=seed)
    assignment = partition.assignment
    rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    for shard in partition.shards:
        for owner, ids in shard.halo.items():
            # Owned by the claimed shard, unique, ascending.
            assert np.all(assignment[ids] == owner)
            assert len(np.unique(ids)) == len(ids)
            # Exactly the remote endpoints this shard aggregates.
            mask = (assignment[rows] == shard.index) & (
                assignment[graph.indices] == owner
            )
            assert np.array_equal(ids, np.unique(graph.indices[mask]))
            assert len(ids) <= shard.cut_edges[owner]


@given(cases)
@settings(max_examples=30, deadline=None)
def test_same_seed_is_deterministic(case):
    graph, parts, method, seed = case
    first = partition_graph(graph, parts, method=method, seed=seed)
    second = partition_graph(graph, parts, method=method, seed=seed)
    assert np.array_equal(first.assignment, second.assignment)
    for a, b in zip(first.shards, second.shards):
        assert np.array_equal(a.nodes, b.nodes)
        assert a.cut_edges == b.cut_edges


@given(cases)
@settings(max_examples=30, deadline=None)
def test_communication_closed_forms(case):
    graph, parts, method, seed = case
    partition = partition_graph(graph, parts, method=method, seed=seed)
    width = 16
    edge = edge_volume_bytes(partition, width)
    halo = halo_volume_bytes(partition, width)
    assert edge == partition.total_cut_edges * width * BYTES_PER_VALUE
    assert halo == partition.total_halo_nodes * width * BYTES_PER_VALUE
    assert halo <= edge  # dedup can only shrink the volume

    workload = ModelWorkload(model="toy", graph=graph.name)
    workload.add(EdgeAggregation(num_inputs=graph.nnz,
                                 num_outputs=graph.num_nodes,
                                 width=width, count=3))
    assert communication_volume_bytes(partition, workload) == 3 * halo
    assert communication_volume_bytes(
        partition, workload, per_edge=True
    ) == 3 * edge


def test_graph_set_sharding_has_zero_cut():
    data = molecule_graph_set(
        num_graphs=12, total_nodes=120, total_edges=140,
        node_feature_dim=4, edge_feature_dim=2, seed=7,
    )
    partition = partition_graph(data, 3)
    assert partition.kind == "graphset"
    assert partition.total_cut_edges == 0
    assert partition.total_halo_nodes == 0
    members = np.concatenate([shard.nodes for shard in partition.shards])
    assert sorted(members.tolist()) == list(range(12))
    # Whole molecules: per-shard nnz sums back to the set total.
    assert sum(s.internal_nnz for s in partition.shards) == partition.total_nnz


def test_induced_subgraphs_slice_features():
    graph = citation_graph(40, 80, seed=3)
    graph.node_features = np.arange(40 * 3, dtype=np.float32).reshape(40, 3)
    partition = partition_graph(graph, 4, method="bfs", seed=0)
    for shard in partition.shards:
        assert shard.data.num_nodes == shard.num_nodes
        assert np.array_equal(
            shard.data.node_features, graph.node_features[shard.nodes]
        )


def test_unknown_method_raises_with_valid_names():
    graph = citation_graph(20, 30, seed=0)
    with pytest.raises(UnknownNameError, match="bfs"):
        partition_graph(graph, 2, method="kaffpa")
    with pytest.raises(UnknownNameError):
        validate_method("kaffpa")
    assert set(method_names()) == set(METHODS)


def test_too_many_parts_raises():
    graph = citation_graph(10, 12, seed=0)
    with pytest.raises(ValueError, match="non-empty"):
        partition_graph(graph, 11)


def test_shard_spec_validation_and_fingerprint():
    spec = ShardSpec(chips=4, index=3, method="bfs", seed=9)
    assert spec.fingerprint() == {
        "chips": 4, "index": 3, "method": "bfs", "seed": 9,
    }
    with pytest.raises(ValueError):
        ShardSpec(chips=2, index=2)
    with pytest.raises(ValueError):
        ShardSpec(chips=0, index=0)
    with pytest.raises(UnknownNameError):
        ShardSpec(chips=2, index=0, method="kaffpa")


def test_metis_respects_the_balance_envelope():
    graph = citation_graph(400, 1200, seed=5)
    for parts in (2, 4, 8):
        partition = partition_graph(graph, parts, method="metis", seed=0)
        assert partition.balance <= 1.101  # 10% slack (+ float fuzz)


class TestStressGenerators:
    def test_exact_counts_and_determinism(self):
        g1 = stress_graph(5_000, 40_000, seed=11)
        g2 = stress_graph(5_000, 40_000, seed=11)
        assert g1.num_nodes == 5_000
        assert g1.nnz == 2 * 40_000  # undirected -> two directed entries
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.indices, g2.indices)
        g3 = stress_graph(5_000, 40_000, seed=12)
        assert not np.array_equal(g1.indices, g3.indices)

    def test_partitions_validate_on_a_stress_graph(self):
        graph = stress_graph(20_000, 120_000, seed=0)
        for method in METHODS:
            partition = partition_graph(graph, 4, method=method, seed=0)
            assert partition.num_items == 20_000
            assert partition.edge_cut_fraction < 1.0

    def test_presets_are_registered(self):
        assert set(STRESS_PRESETS) == {
            "stress_100k", "stress_300k", "stress_1m",
        }
        for nodes, edges in STRESS_PRESETS.values():
            assert 100_000 <= nodes <= 1_000_000
            assert edges >= 4 * nodes

    def test_unknown_preset_raises(self):
        from repro.graphs.generators import stress_preset

        with pytest.raises(KeyError, match="stress_100k"):
            stress_preset("stress_13k")

    @pytest.mark.slow
    def test_100k_preset_partitions_at_scale(self):
        from repro.graphs.generators import stress_preset

        graph = stress_preset("stress_100k", seed=0)
        assert graph.num_nodes == 100_000
        assert graph.nnz == 2 * 800_000
        partition = partition_graph(graph, 8, method="metis", seed=0)
        assert partition.balance <= 1.101
        bfs = partition_graph(graph, 8, method="bfs", seed=0)
        assert bfs.balance <= 1.101
