"""Tests for the sparsity-aware DNN accelerator model."""

import pytest

from repro.dataflow import MatmulLayer
from repro.dataflow.sparse_accel import (
    SparseAcceleratorConfig,
    analyze_layer_sparse,
    analyze_network_sparse,
)


def adjacency_layer(n=1000, nnz=3000, width=16) -> MatmulLayer:
    return MatmulLayer("adj", m=n, k=n, n=width, a_nnz=nnz)


class TestComputeModel:
    def test_dense_layer_matches_alu_bound(self):
        layer = MatmulLayer("fc", m=182, k=100, n=10)
        analysis = analyze_layer_sparse(layer, bandwidth_gbps=None,
                                        freq_ghz=1.0)
        assert analysis.compute_cycles == pytest.approx(
            layer.total_macs / 182
        )
        assert not analysis.scheduler_bound

    def test_ultra_sparse_layer_is_scheduler_bound(self):
        analysis = analyze_layer_sparse(adjacency_layer())
        assert analysis.scheduler_bound
        # Scheduler scans all dense positions at lookahead width.
        expected = adjacency_layer().total_macs / (182 * 16)
        assert analysis.compute_cycles == pytest.approx(expected)

    def test_lookahead_caps_the_benefit(self):
        narrow = analyze_layer_sparse(
            adjacency_layer(), SparseAcceleratorConfig(lookahead=4)
        )
        wide = analyze_layer_sparse(
            adjacency_layer(), SparseAcceleratorConfig(lookahead=64)
        )
        assert narrow.compute_cycles > wide.compute_cycles

    def test_invalid_lookahead_rejected(self):
        with pytest.raises(ValueError):
            SparseAcceleratorConfig(lookahead=0)


class TestTraffic:
    def test_sparse_operand_streams_compressed(self):
        layer = adjacency_layer(n=1000, nnz=3000, width=16)
        analysis = analyze_layer_sparse(layer)
        dense_a = 1000 * 1000 * 4
        assert analysis.traffic_bytes < dense_a / 10

    def test_dense_operand_streams_fully(self):
        layer = MatmulLayer("fc", m=100, k=200, n=30)
        analysis = analyze_layer_sparse(layer)
        assert analysis.traffic_bytes == pytest.approx(
            (100 * 200 + 200 * 30 + 100 * 30) * 4
        )


class TestPaperArgument:
    """Section II: sparse-DNN accelerators help but cannot close the gap
    at graph-adjacency sparsity."""

    def _pubmed_layers(self):
        from repro.dataflow import ir_dense_layers
        from repro.models.registry import benchmark_by_key, benchmark_ir

        return ir_dense_layers(benchmark_ir(benchmark_by_key("gcn-pubmed")))

    def test_beats_the_dense_mapping(self):
        from repro.dataflow import EYERISS_CONFIG, analyze_network

        layers = self._pubmed_layers()
        dense = analyze_network(layers, EYERISS_CONFIG, 68.0)
        sparse = analyze_network_sparse(layers)
        sparse_total = sum(a.latency_ns for a in sparse)
        assert sparse_total < dense.latency_ns / 5

    def test_but_utilization_stays_terrible(self):
        layers = self._pubmed_layers()
        for analysis in analyze_network_sparse(layers):
            if analysis.layer.a_nnz is not None:
                assert analysis.useful_pe_utilization < 0.01

    def test_and_the_gnn_accelerator_still_wins(self):
        from repro.eval.accelerator import run_config
        from repro.systems.accel import resolve_accel_config

        layers = self._pubmed_layers()
        sparse_total_ms = sum(
            a.latency_ns for a in analyze_network_sparse(layers)
        ) * 1e-6
        gnna = run_config("gcn-pubmed",
                          resolve_accel_config("CPU iso-BW", 2.4))
        assert gnna.latency_ms < sparse_total_ms

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            analyze_network_sparse([])
