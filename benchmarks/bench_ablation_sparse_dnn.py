"""Ablation: would a sparsity-aware DNN accelerator have sufficed?

Section II dismisses Han-style sparse DNN accelerators for GNNs because
their schedulers still scan dense operand positions.  This bench puts the
three machines side by side on GCN (dense Eyeriss mapping, sparse-aware
scheduler with a 16-wide lookahead, and the paper's GNN accelerator) and
checks the argument quantitatively.
"""

from repro.dataflow import EYERISS_CONFIG, analyze_network, ir_dense_layers
from repro.dataflow.sparse_accel import analyze_network_sparse
from repro.eval.accelerator import run_config
from repro.eval.report import format_table
from repro.graphs import DATASETS
from repro.models.registry import benchmark_by_key, benchmark_ir
from repro.systems.accel import resolve_accel_config

GRAPHS = ("cora", "citeseer", "pubmed")


def test_bench_sparse_dnn(benchmark, fresh_simulations):
    def run():
        rows = []
        for name in GRAPHS:
            layers = ir_dense_layers(
                benchmark_ir(benchmark_by_key(f"gcn-{name}"))
            )
            dense = analyze_network(layers, EYERISS_CONFIG, 68.0)
            sparse = analyze_network_sparse(layers)
            sparse_ms = sum(a.latency_ns for a in sparse) * 1e-6
            sparse_util = max(
                a.useful_pe_utilization for a in sparse
                if a.layer.a_nnz is not None
            )
            gnna = run_config(f"gcn-{name}",
                              resolve_accel_config("CPU iso-BW", 2.4))
            rows.append(
                (DATASETS[name].name, dense.latency_ms, sparse_ms,
                 gnna.latency_ms, sparse_util)
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["Graph", "Dense DNN (ms)", "Sparse DNN (ms)",
             "GNN accel (ms)", "sparse adj. PE util"],
            rows,
            title="Three machines on GCN @ 2.4 GHz, 68 GBps",
        )
    )
    for name, dense_ms, sparse_ms, gnna_ms, sparse_util in rows:
        # Sparsity support helps substantially over the dense mapping...
        assert sparse_ms < dense_ms
        # ...but the GNN accelerator matches or beats it on every graph
        # (and by 25%+ on the larger ones)...
        assert gnna_ms <= sparse_ms * 1.02
        # ...and the sparse machine's adjacency-layer PEs stay almost
        # entirely idle (the paper's scheduling argument), with the waste
        # growing as the graphs get sparser.
        assert sparse_util < 0.05
    utils = [row[4] for row in rows]
    assert utils[2] < utils[0]  # Pubmed wastes the most
