"""Shard graphs keep seeded node features deferred.

A dataset's seeded features are generated on their first read
(:meth:`repro.graphs.graph.Graph.defer_node_features`); an induced
subgraph records its row selection instead of copying rows, so compiling
and simulating shards, which read only the feature width, never
generates a value.
"""

import pickle

import numpy as np
import pytest

from repro.graphs import graph as graph_module
from repro.graphs.datasets import load_dataset, pubmed
from repro.graphs.generators import citation_graph
from repro.partition import ShardSpec, partition_graph
from repro.partition.core import induced_subgraph
from repro.partition.shards import (
    clear_partition_memo,
    compiled_shard_program,
    partition_benchmark,
)


@pytest.fixture
def generated(monkeypatch):
    """Every call of the seeded feature generator."""
    calls = []
    generate = graph_module.random_node_features

    def counted(*args):
        calls.append(args)
        return generate(*args)

    monkeypatch.setattr(graph_module, "random_node_features", counted)
    return calls


def test_induced_subgraphs_keep_features_deferred(generated):
    graph = citation_graph(40, 80, seed=3)
    graph.defer_node_features(5, seed=7)
    partition = partition_graph(graph, 4, method="bfs", seed=0)
    # A shard of a shard selects from the same source rows.
    shard = partition.shards[1]
    nested_rows = np.arange(0, shard.num_nodes, 2)
    nested = induced_subgraph(shard.data, nested_rows, "nested")
    assert generated == []
    assert nested.num_node_features == 5
    expected = graph_module.random_node_features(40, 5, 7)
    for shard in partition.shards:
        assert shard.data.num_node_features == 5
        clone = pickle.loads(pickle.dumps(shard.data))
        for data in (clone, shard.data):
            features = data.node_features
            assert features.dtype == np.float32
            assert features.tobytes() == expected[shard.nodes].tobytes()
    nested_nodes = partition.shards[1].nodes[nested_rows]
    assert nested.node_features.tobytes() == (
        expected[nested_nodes].tobytes()
    )


def test_generated_features_are_sliced_at_once(generated):
    graph = citation_graph(40, 80, seed=3)
    graph.defer_node_features(5, seed=7)
    features = graph.node_features
    shard = induced_subgraph(graph, np.array([1, 4, 9]), "three")
    assert len(generated) == 1  # the parent's read, not the shard's
    assert shard.node_features.tobytes() == features[[1, 4, 9]].tobytes()
    assert len(generated) == 1


def test_pubmed_shards_compile_without_features(generated):
    # systems-mix compiles gcn-pubmed's METIS shards at set-up; the
    # compiler reads only the feature width.
    pubmed.cache_clear()
    clear_partition_memo()
    try:
        specs = [ShardSpec(chips=4, index=i, method="metis", seed=0)
                 for i in range(4)]
        programs = [compiled_shard_program("gcn-pubmed", s) for s in specs]
        assert generated == []
        assert all(program.num_tasks for program in programs)
        shard = partition_benchmark("gcn-pubmed", 4, "metis", 0).shards[2]
        clone = pickle.loads(pickle.dumps(shard.data))
        assert clone.num_node_features == 500
        first_read = clone.node_features
        assert len(generated) == 1
        parent = load_dataset("pubmed").node_features
        assert first_read.tobytes() == parent[shard.nodes].tobytes()
    finally:
        pubmed.cache_clear()
        clear_partition_memo()
