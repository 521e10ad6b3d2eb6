"""Tests for matmul layer descriptors."""

import pytest

from repro.dataflow import MatmulLayer, ir_dense_layers
from repro.graphs import citation_graph
from repro.models import GCN


def test_total_macs():
    layer = MatmulLayer("l", m=10, k=20, n=30)
    assert layer.total_macs == 6000


def test_dense_layer_is_fully_useful():
    layer = MatmulLayer("l", m=10, k=20, n=30)
    assert layer.useful_macs == layer.total_macs
    assert layer.useful_fraction == 1.0
    assert layer.a_density == 1.0


def test_sparse_operand_scales_useful_macs():
    layer = MatmulLayer("l", m=10, k=10, n=4, a_nnz=25)
    assert layer.useful_macs == 100
    assert layer.useful_fraction == pytest.approx(0.25)
    assert layer.a_density == pytest.approx(0.25)


def test_invalid_dimensions_rejected():
    with pytest.raises(ValueError):
        MatmulLayer("l", m=0, k=1, n=1)


def test_nnz_out_of_range_rejected():
    with pytest.raises(ValueError):
        MatmulLayer("l", m=2, k=2, n=1, a_nnz=5)


class TestGCNDenseLayers:
    @pytest.fixture
    def graph(self):
        return citation_graph(100, 240, seed=0)

    @pytest.fixture
    def layers(self, graph):
        return ir_dense_layers(GCN(50, 16, 7).layer_ir(graph))

    def test_four_layers_project_propagate(self, layers):
        assert [l.name for l in layers] == [
            "project0", "propagate0", "project1", "propagate1",
        ]

    def test_projection_dimensions(self, layers):
        assert (layers[0].m, layers[0].k, layers[0].n) == (100, 50, 16)
        assert (layers[2].m, layers[2].k, layers[2].n) == (100, 16, 7)

    def test_propagation_uses_square_adjacency(self, graph, layers):
        assert (layers[1].m, layers[1].k) == (100, 100)
        assert layers[1].a_nnz == graph.nnz + graph.num_nodes

    def test_projection_layers_are_dense(self, layers):
        assert layers[0].a_nnz is None
        assert layers[2].a_nnz is None
