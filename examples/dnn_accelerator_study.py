"""The Section II motivation study, interactively.

Why do GNNs need a new accelerator?  This example maps GCN onto the
dense Eyeriss-like array exactly as Section II does — the graph
convolution becomes a convolution with the (almost entirely zero)
adjacency matrix as weights — and shows where the cycles and the DRAM
bandwidth go.  It then sweeps the global-buffer size to show the waste
is structural, not a tuning artifact.

Run:  python examples/dnn_accelerator_study.py
"""

import dataclasses

from repro.dataflow import (
    EYERISS_CONFIG,
    MatmulLayer,
    analyze_network,
    ir_dense_layers,
)
from repro.eval.section2 import TABLE2_PAPER_MS
from repro.graphs import DATASETS, load_dataset
from repro.models.registry import benchmark_by_key, benchmark_ir


def gcn_layers(name: str) -> list[MatmulLayer]:
    """The GCN benchmark on graph ``name`` as dense matmul layers."""
    return ir_dense_layers(benchmark_ir(benchmark_by_key(f"gcn-{name}")))


def study_graph(name: str) -> None:
    graph = load_dataset(name)
    stats = DATASETS[name]
    layers = gcn_layers(name)
    print(f"\n=== GCN on {stats.name} "
          f"({graph.sparsity(with_self_loops=True):.3%} sparse) ===")
    analysis = analyze_network(layers, EYERISS_CONFIG, bandwidth_gbps=68.0)
    print(f"{'layer':12s} {'M x K x N':>20s} {'latency':>10s} "
          f"{'traffic':>10s} {'useful':>7s}")
    for layer_analysis in analysis.layers:
        layer = layer_analysis.layer
        shape = f"{layer.m} x {layer.k} x {layer.n}"
        print(
            f"{layer.name:12s} {shape:>20s} "
            f"{layer_analysis.latency_ns / 1e6:8.3f}ms "
            f"{layer_analysis.traffic_bytes / 1e6:8.1f}MB "
            f"{layer.useful_fraction:6.1%}"
        )
    paper = TABLE2_PAPER_MS[name]
    print(f"total: {analysis.latency_ms:.3f} ms at 68 GBps "
          f"(paper Table II: {paper[1]} ms); "
          f"{analysis.useful_compute_fraction:.1%} of compute and "
          f"{analysis.useful_traffic_fraction:.1%} of traffic useful")


def buffer_sweep() -> None:
    print("\n=== Global buffer sweep (Pubmed, 68 GBps) ===")
    layers = gcn_layers("pubmed")
    print("buffer      latency   traffic")
    for kilobytes in (54, 108, 216, 432):
        config = dataclasses.replace(
            EYERISS_CONFIG, global_buffer_bytes=kilobytes * 1024
        )
        analysis = analyze_network(layers, config, bandwidth_gbps=68.0)
        print(f"{kilobytes:4d}kB   {analysis.latency_ms:8.2f}ms "
              f"{analysis.traffic_bytes / 1e9:7.2f}GB")
    print("Even 4x more on-chip buffering barely dents the latency: the "
          "dense schedule must still stream the ~zero adjacency matrix.")


def main() -> None:
    for name in ("cora", "citeseer", "pubmed"):
        study_graph(name)
    buffer_sweep()


if __name__ == "__main__":
    main()
