"""Sparsity-aware DNN accelerator model (the paper's Section II foil).

The paper argues that DNN accelerators with weight-sparsity support (Han
et al.'s 88-92% pruning regime) are still inadequate for graph adjacency
operands, because "even though the input and output to their compute
logic is sparse, they work with dense representations of the inputs when
scheduling" — at 99.9%+ sparsity almost every scheduling slot holds
nothing useful.

This model quantifies that argument.  Each PE scans a ``lookahead``-wide
window of dense operand positions per cycle and executes whatever
nonzeros it finds, so

* compute cycles = max(useful_macs / PEs,
  dense_macs / (PEs x lookahead)) — the scheduler front-end, not the
  ALUs, is the limit once density drops below 1/lookahead;
* the sparse operand streams compressed (value + index per nonzero);
* dense layers behave exactly as on the dense accelerator.

Result (``tests/dataflow/test_sparse_accel.py`` asserts it for every
Section II graph and prints the table): on GCN Pubmed the sparse
machine beats the dense mapping by an order of magnitude in latency yet
still runs its PEs at well under 1% useful utilization, and remains
slower than the GNN accelerator — the paper's claim, with numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataflow.layers import MatmulLayer
from repro.dataflow.spatial import SpatialArrayConfig

#: Compressed-sparse storage: 4B value + 2B index per nonzero.
BYTES_PER_NONZERO = 6


@dataclass(frozen=True)
class SparseAcceleratorConfig:
    """A sparsity-aware spatial accelerator."""

    array: SpatialArrayConfig = SpatialArrayConfig()
    lookahead: int = 16  # dense positions scanned per PE per cycle

    def __post_init__(self) -> None:
        if self.lookahead < 1:
            raise ValueError("lookahead must be >= 1")


@dataclass(frozen=True)
class SparseLayerAnalysis:
    """Latency/traffic/utilization of one layer on the sparse machine."""

    layer: MatmulLayer
    compute_cycles: float
    latency_ns: float
    traffic_bytes: float
    useful_pe_utilization: float
    scheduler_bound: bool


def analyze_layer_sparse(
    layer: MatmulLayer,
    config: SparseAcceleratorConfig = SparseAcceleratorConfig(),
    bandwidth_gbps: float | None = 68.0,
    freq_ghz: float = 2.4,
) -> SparseLayerAnalysis:
    """Map one layer onto the sparsity-aware accelerator."""
    pes = config.array.num_pes
    alu_cycles = layer.useful_macs / pes
    scheduler_cycles = layer.total_macs / (pes * config.lookahead)
    cycles = max(alu_cycles, scheduler_cycles)
    compute_ns = cycles / freq_ghz

    value_bytes = config.array.bytes_per_value
    if layer.a_nnz is None:
        a_bytes = layer.m * layer.k * value_bytes
    else:
        a_bytes = layer.a_nnz * BYTES_PER_NONZERO
    traffic = (
        a_bytes
        + layer.k * layer.n * value_bytes  # B, dense
        + layer.m * layer.n * value_bytes  # C
    )
    if bandwidth_gbps is None:
        latency = compute_ns
    else:
        latency = compute_ns + traffic / bandwidth_gbps
    return SparseLayerAnalysis(
        layer=layer,
        compute_cycles=cycles,
        latency_ns=latency,
        traffic_bytes=traffic,
        useful_pe_utilization=layer.useful_macs
        / (pes * latency * freq_ghz),
        scheduler_bound=scheduler_cycles > alu_cycles,
    )


def analyze_network_sparse(
    layers: list[MatmulLayer],
    config: SparseAcceleratorConfig = SparseAcceleratorConfig(),
    bandwidth_gbps: float | None = 68.0,
    freq_ghz: float = 2.4,
) -> list[SparseLayerAnalysis]:
    """Analyze a layer sequence; layers execute back to back."""
    if not layers:
        raise ValueError("network must contain at least one layer")
    return [
        analyze_layer_sparse(layer, config, bandwidth_gbps, freq_ghz)
        for layer in layers
    ]
