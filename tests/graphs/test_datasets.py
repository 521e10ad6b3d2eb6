"""Tests that the generated datasets reproduce Table V exactly."""

import pickle

import numpy as np
import pytest

from repro.graphs import (
    DATASETS,
    dataset_statistics,
    dblp_1,
    load_dataset,
)
from repro.graphs import graph as graph_module
from repro.graphs.datasets import citeseer


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_table5_row_matches_spec(name):
    spec = DATASETS[name]
    measured = dataset_statistics(name)
    assert measured == spec


def test_load_dataset_unknown_name_raises():
    with pytest.raises(KeyError):
        load_dataset("imaginary")


def test_load_dataset_is_case_insensitive():
    assert load_dataset("Cora") is load_dataset("cora")


def test_datasets_are_cached():
    assert load_dataset("cora") is load_dataset("cora")


def test_dblp_vertex_state_is_degree():
    g = dblp_1()
    assert g.num_node_features == 1
    assert np.array_equal(g.node_features.ravel(), g.degrees().astype(np.float32))


def test_citation_sparsity_regime():
    # Section II: adjacency matrices of the citation inputs are >= 99.8%
    # sparse, with Pubmed the sparsest.
    cora_s = load_dataset("cora").sparsity(with_self_loops=True)
    cite_s = load_dataset("citeseer").sparsity(with_self_loops=True)
    pub_s = load_dataset("pubmed").sparsity(with_self_loops=True)
    assert cora_s > 0.998
    assert cite_s > 0.998
    assert pub_s > max(cora_s, cite_s)


def test_qm9_molecules_are_small():
    gs = load_dataset("qm9_1000")
    sizes = [g.num_nodes for g in gs]
    assert 10 <= np.mean(sizes) <= 14  # ~12.3 atoms per molecule


class TestFeaturesOnFirstRead:
    @pytest.fixture
    def generated(self, monkeypatch):
        """Every call of the feature generator, from a fresh dataset cache."""
        calls = []
        generate = graph_module.random_node_features

        def counted(*args):
            calls.append(args)
            return generate(*args)

        monkeypatch.setattr(graph_module, "random_node_features", counted)
        citeseer.cache_clear()
        yield calls
        citeseer.cache_clear()

    def test_loading_generates_nothing(self, generated):
        graph = load_dataset("citeseer")
        assert generated == []
        assert graph.num_node_features == 3703

    def test_first_read_generates_once_and_bit_identically(self, generated):
        graph = load_dataset("citeseer")
        features = graph.node_features
        assert len(generated) == 1
        expected = np.random.default_rng(2).standard_normal(
            (3327, 3703)
        ).astype(np.float32)
        assert features.dtype == np.float32
        assert features.tobytes() == expected.tobytes()
        assert graph.node_features is features
        assert len(generated) == 1

    def test_pickled_before_first_read(self, generated):
        graph = load_dataset("citeseer")
        clone = pickle.loads(pickle.dumps(graph))
        assert generated == []
        assert clone.num_node_features == 3703
        assert clone.node_features.tobytes() == graph.node_features.tobytes()

    def test_assignment_replaces_deferred_features(self, generated):
        graph = load_dataset("citeseer")
        graph.node_features = np.ones((3327, 2), dtype=np.float32)
        assert graph.num_node_features == 2
        assert graph.node_features.sum() == 2 * 3327
        assert generated == []
