"""NN-Dataflow-like tiling search and layer analysis.

The mapper schedules a dense matmul onto the spatial array with an
output-stationary dataflow: each PE owns one output element of the current
``tm x tn`` output tile and accumulates over the K dimension while A and B
tiles stream through the global buffer.  The search picks the tiling that
minimizes latency (then off-chip traffic) subject to the double-buffered
global-buffer capacity.

Like the dense scheduler the paper criticizes, the mapper is *sparsity
blind*: zero entries of the adjacency operand are scheduled and fetched
like any other value.  Useful-work metrics are reported alongside so the
Section II waste analysis (Figure 2) falls out directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.dataflow.layers import MatmulLayer
from repro.dataflow.spatial import SpatialArrayConfig


@dataclass(frozen=True)
class Mapping:
    """A chosen tiling for one layer."""

    tm: int
    tn: int
    tk: int
    reads_a: int  # words
    reads_b: int  # words
    writes_c: int  # words

    @property
    def traffic_words(self) -> int:
        """Total off-chip words moved."""
        return self.reads_a + self.reads_b + self.writes_c


def _tile_candidates(dim: int, unit: int) -> list[int]:
    """Doubling multiples of the array dimension, clipped to ``dim``."""
    candidates = set()
    size = unit
    while size < dim:
        candidates.add(size)
        size *= 2
    candidates.add(dim)
    return sorted(candidates)


def _max_tk(tm: int, tn: int, k: int, buffer_words: int) -> int:
    """Largest K-tile fitting the double-buffered global buffer."""
    available = buffer_words - tm * tn
    if available < 2 * (tm + tn):
        return 0
    return min(k, available // (2 * (tm + tn)))


def compute_cycles(layer: MatmulLayer, config: SpatialArrayConfig) -> int:
    """Cycles to execute the dense layer on the array.

    Output-stationary: the array sweeps ``ceil(M/rows) * ceil(N/cols)``
    positions, each accumulating the full K dimension at one MAC per PE
    per cycle.  Edge waste (e.g. a 16-wide output on a 14-wide array) is
    where PE utilization is lost.
    """
    row_passes = math.ceil(layer.m / config.rows)
    col_passes = math.ceil(layer.n / config.cols)
    return row_passes * col_passes * layer.k


def search_mapping(
    layer: MatmulLayer,
    config: SpatialArrayConfig,
    bandwidth_gbps: float | None = None,
    freq_ghz: float = 2.4,
) -> Mapping:
    """Find the lowest-latency (then lowest-traffic) feasible tiling.

    Compute and memory time add: the two phases are serialized, which
    matches the limited overlap NN-Dataflow reports for these
    bandwidth-starved layers (the Table II ratios between unlimited and
    68 GBps latency).
    """
    words = config.buffer_words
    cycles = compute_cycles(layer, config)
    compute_ns = cycles / freq_ghz
    best: Mapping | None = None
    best_key: tuple[float, int] | None = None
    for tm in _tile_candidates(layer.m, config.rows):
        for tn in _tile_candidates(layer.n, config.cols):
            tn = min(tn, layer.n)
            tk = _max_tk(tm, tn, layer.k, words)
            if tk < 1:
                continue
            reads_a = layer.m * layer.k * math.ceil(layer.n / tn)
            reads_b = layer.k * layer.n * math.ceil(layer.m / tm)
            writes_c = layer.m * layer.n
            traffic = reads_a + reads_b + writes_c
            if bandwidth_gbps is None:
                latency = compute_ns
            else:
                mem_ns = traffic * config.bytes_per_value / bandwidth_gbps
                latency = compute_ns + mem_ns
            key = (latency, traffic)
            if best_key is None or key < best_key:
                best_key = key
                best = Mapping(tm, tn, tk, reads_a, reads_b, writes_c)
    if best is None:
        raise ValueError(
            f"layer {layer.name} has no feasible tiling: a single "
            f"{config.rows}x{config.cols} tile overflows the "
            f"{config.global_buffer_bytes}B global buffer"
        )
    return best


@dataclass(frozen=True)
class LayerAnalysis:
    """Mapper output for one layer at one bandwidth/frequency point."""

    layer: MatmulLayer
    mapping: Mapping
    compute_cycles: int
    latency_ns: float
    traffic_bytes: int
    useful_traffic_bytes: float
    freq_ghz: float
    num_pes: int

    @property
    def latency_cycles(self) -> float:
        """Latency expressed in array cycles."""
        return self.latency_ns * self.freq_ghz

    @property
    def pe_utilization(self) -> float:
        """Issued MACs over PE-cycles available during the layer."""
        return self.layer.total_macs / (self.num_pes * self.latency_cycles)

    @property
    def useful_pe_utilization(self) -> float:
        """Useful (nonzero-operand) MACs over available PE-cycles."""
        return self.layer.useful_macs / (self.num_pes * self.latency_cycles)

    @property
    def bandwidth_gbps(self) -> float:
        """Mean off-chip bandwidth the layer sustains (GB/s)."""
        return self.traffic_bytes / self.latency_ns

    @property
    def useful_bandwidth_gbps(self) -> float:
        """Bandwidth spent on nonzero operand data (GB/s)."""
        return self.useful_traffic_bytes / self.latency_ns


def analyze_layer(
    layer: MatmulLayer,
    config: SpatialArrayConfig,
    bandwidth_gbps: float | None = None,
    freq_ghz: float = 2.4,
) -> LayerAnalysis:
    """Map one layer and report its latency, traffic, and utilization."""
    mapping = search_mapping(layer, config, bandwidth_gbps, freq_ghz)
    cycles = compute_cycles(layer, config)
    compute_ns = cycles / freq_ghz
    traffic_bytes = mapping.traffic_words * config.bytes_per_value
    if bandwidth_gbps is None:
        latency = compute_ns
    else:
        latency = compute_ns + traffic_bytes / bandwidth_gbps
    useful = (
        mapping.reads_a * layer.a_density
        + mapping.reads_b
        + mapping.writes_c
    ) * config.bytes_per_value
    return LayerAnalysis(
        layer=layer,
        mapping=mapping,
        compute_cycles=cycles,
        latency_ns=latency,
        traffic_bytes=traffic_bytes,
        useful_traffic_bytes=useful,
        freq_ghz=freq_ghz,
        num_pes=config.num_pes,
    )


@dataclass(frozen=True)
class NetworkAnalysis:
    """Aggregate mapper output for a layer sequence (one inference)."""

    layers: tuple[LayerAnalysis, ...]
    freq_ghz: float
    num_pes: int

    @property
    def latency_ns(self) -> float:
        """End-to-end inference latency (layers execute sequentially)."""
        return sum(a.latency_ns for a in self.layers)

    @property
    def latency_ms(self) -> float:
        """Latency in milliseconds (the Table II unit)."""
        return self.latency_ns * 1e-6

    @property
    def traffic_bytes(self) -> int:
        """Total off-chip traffic."""
        return sum(a.traffic_bytes for a in self.layers)

    @property
    def useful_traffic_bytes(self) -> float:
        """Off-chip traffic attributable to nonzero operand entries."""
        return sum(a.useful_traffic_bytes for a in self.layers)

    @property
    def useful_traffic_fraction(self) -> float:
        """Share of memory requests that were useful (Figure 2)."""
        return self.useful_traffic_bytes / self.traffic_bytes

    @property
    def total_macs(self) -> int:
        return sum(a.layer.total_macs for a in self.layers)

    @property
    def useful_macs(self) -> int:
        return sum(a.layer.useful_macs for a in self.layers)

    @property
    def useful_compute_fraction(self) -> float:
        """Share of scheduled MACs that were useful (Figure 2)."""
        return self.useful_macs / self.total_macs

    @property
    def pe_utilization(self) -> float:
        """Issued MACs over all PE-cycles of the inference."""
        total_cycles = self.latency_ns * self.freq_ghz
        return self.total_macs / (self.num_pes * total_cycles)

    @property
    def useful_pe_utilization(self) -> float:
        """Useful MACs over all PE-cycles of the inference."""
        total_cycles = self.latency_ns * self.freq_ghz
        return self.useful_macs / (self.num_pes * total_cycles)

    @property
    def mean_bandwidth_gbps(self) -> float:
        """Mean off-chip bandwidth across the inference (GB/s)."""
        return self.traffic_bytes / self.latency_ns

    @property
    def useful_bandwidth_gbps(self) -> float:
        """Mean useful off-chip bandwidth (GB/s)."""
        return self.useful_traffic_bytes / self.latency_ns


def analyze_network(
    layers: list[MatmulLayer],
    config: SpatialArrayConfig,
    bandwidth_gbps: float | None = None,
    freq_ghz: float = 2.4,
) -> NetworkAnalysis:
    """Map a layer sequence and aggregate the per-layer analyses."""
    if not layers:
        raise ValueError("network must contain at least one layer")
    analyses = tuple(
        analyze_layer(layer, config, bandwidth_gbps, freq_ghz)
        for layer in layers
    )
    return NetworkAnalysis(
        layers=analyses, freq_ghz=freq_ghz, num_pes=config.num_pes
    )
