"""Section II motivation study: GCN on a dense DNN accelerator.

Reproduces Table II (inference latency at unlimited and 68 GBps off-chip
bandwidth) and Figure 2 (off-chip bandwidth and PE utilization, counting
total vs useful — nonzero adjacency — work).  Each graph's GCN benchmark
is lowered by :func:`repro.dataflow.layers.ir_dense_layers`, the same
dense lowering the ``eyeriss`` execution system runs, so Table II's
68 GBps column is that system's report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataflow.layers import ir_dense_layers
from repro.dataflow.mapper import NetworkAnalysis, analyze_network
from repro.dataflow.spatial import EYERISS_CONFIG, SpatialArrayConfig
from repro.graphs.datasets import DATASETS
from repro.models.registry import benchmark_by_key, benchmark_ir

#: Graphs the Section II study runs GCN on.
SECTION2_GRAPHS = ("cora", "citeseer", "pubmed")

#: Paper Table II latencies in ms: (unlimited BW, 68 GBps).
TABLE2_PAPER_MS: dict[str, tuple[float, float]] = {
    "cora": (0.791, 1.597),
    "citeseer": (1.434, 2.661),
    "pubmed": (22.129, 64.636),
}


@dataclass(frozen=True)
class Section2Row:
    """One graph's results on the dense spatial accelerator."""

    graph: str
    unlimited_ms: float
    limited_ms: float
    required_bandwidth_gbps: float
    useful_bandwidth_gbps: float
    pe_utilization: float
    useful_pe_utilization: float
    useful_traffic_fraction: float
    useful_compute_fraction: float


def _analyses(
    graph_name: str,
    config: SpatialArrayConfig,
    bandwidth_gbps: float | None,
    freq_ghz: float,
) -> NetworkAnalysis:
    ir = benchmark_ir(benchmark_by_key(f"gcn-{graph_name}"))
    return analyze_network(ir_dense_layers(ir), config, bandwidth_gbps,
                           freq_ghz)


def section2_row(
    graph_name: str,
    config: SpatialArrayConfig = EYERISS_CONFIG,
    bandwidth_gbps: float = 68.0,
    freq_ghz: float = 2.4,
) -> Section2Row:
    """Full Section II analysis of one input graph."""
    unlimited = _analyses(graph_name, config, None, freq_ghz)
    limited = _analyses(graph_name, config, bandwidth_gbps, freq_ghz)
    return Section2Row(
        graph=DATASETS[graph_name].name,
        unlimited_ms=unlimited.latency_ms,
        limited_ms=limited.latency_ms,
        required_bandwidth_gbps=unlimited.mean_bandwidth_gbps,
        useful_bandwidth_gbps=unlimited.useful_bandwidth_gbps,
        pe_utilization=unlimited.pe_utilization,
        useful_pe_utilization=unlimited.useful_pe_utilization,
        useful_traffic_fraction=limited.useful_traffic_fraction,
        useful_compute_fraction=limited.useful_compute_fraction,
    )


def table2(freq_ghz: float = 2.4) -> list[Section2Row]:
    """Table II: GCN latency on the DNN accelerator for the three graphs."""
    return [section2_row(name, freq_ghz=freq_ghz) for name in SECTION2_GRAPHS]


def figure2(freq_ghz: float = 2.4) -> list[Section2Row]:
    """Figure 2: bandwidth and PE utilization, total vs useful.

    Same analysis as Table II; the figure plots ``required_bandwidth`` vs
    ``useful_bandwidth`` and ``pe_utilization`` vs
    ``useful_pe_utilization`` per graph.
    """
    return table2(freq_ghz=freq_ghz)
