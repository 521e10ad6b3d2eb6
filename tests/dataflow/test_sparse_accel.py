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


def three_machines(name):
    """GCN on one graph at 2.4 GHz and 68 GBps: the dense DNN mapping,
    the sparse DNN (16-wide lookahead) and the GNN accelerator, with the
    sparse machine's best adjacency-layer useful PE utilization."""
    from repro.dataflow import EYERISS_CONFIG, analyze_network, ir_dense_layers
    from repro.eval.accelerator import run_config
    from repro.models.registry import benchmark_by_key, benchmark_ir
    from repro.systems.accel import resolve_accel_config

    layers = ir_dense_layers(benchmark_ir(benchmark_by_key(f"gcn-{name}")))
    dense = analyze_network(layers, EYERISS_CONFIG, 68.0)
    sparse = analyze_network_sparse(layers)
    gnna = run_config(f"gcn-{name}", resolve_accel_config("CPU iso-BW", 2.4))
    return (
        dense.latency_ms,
        sum(a.latency_ns for a in sparse) * 1e-6,
        gnna.latency_ms,
        max(a.useful_pe_utilization for a in sparse
            if a.layer.a_nnz is not None),
    )


class TestThreeMachines:
    """The sparse-DNN ablation on every Section II graph: sparsity
    support closes most of the dense mapping's latency gap, the GNN
    accelerator still matches or beats it, and the sparse machine's
    adjacency-layer PEs stay almost idle.  ``TestPaperArgument`` holds
    Pubmed's row to tighter bounds."""

    @pytest.mark.parametrize("name", ["cora", "citeseer"])
    def test_row(self, name):
        dense_ms, sparse_ms, gnna_ms, sparse_util = three_machines(name)
        assert sparse_ms < dense_ms
        assert gnna_ms <= sparse_ms * 1.02
        assert sparse_util < 0.05

    @pytest.mark.slow
    def test_pubmed_wastes_the_most(self):
        from repro.eval.report import format_table
        from repro.graphs import DATASETS

        rows = {name: three_machines(name)
                for name in ("cora", "citeseer", "pubmed")}
        print()
        print(format_table(
            ["Graph", "Dense DNN (ms)", "Sparse DNN (ms)", "GNN accel (ms)",
             "sparse adj. PE util"],
            [(DATASETS[name].name,) + row for name, row in rows.items()],
            title="Three machines on GCN @ 2.4 GHz, 68 GBps",
        ))
        assert rows["pubmed"][3] < rows["cora"][3]
