"""Tests for the tiling search and layer analysis."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow import (
    EYERISS_CONFIG,
    MatmulLayer,
    SpatialArrayConfig,
    analyze_layer,
    analyze_network,
    search_mapping,
)
from repro.dataflow.mapper import compute_cycles


class TestComputeCycles:
    def test_single_tile_layer(self):
        # 13x14 outputs, K=10: exactly one array pass of 10 cycles.
        layer = MatmulLayer("l", m=13, k=10, n=14)
        assert compute_cycles(layer, EYERISS_CONFIG) == 10

    def test_edge_waste_rounds_up(self):
        # 16 output columns need two 14-wide passes.
        layer = MatmulLayer("l", m=13, k=10, n=16)
        assert compute_cycles(layer, EYERISS_CONFIG) == 20

    def test_scales_linearly_in_k(self):
        short = MatmulLayer("l", m=13, k=10, n=14)
        long = MatmulLayer("l", m=13, k=100, n=14)
        ratio = compute_cycles(long, EYERISS_CONFIG) / compute_cycles(
            short, EYERISS_CONFIG
        )
        assert ratio == 10


class TestSearchMapping:
    def test_tiles_respect_buffer_capacity(self):
        layer = MatmulLayer("l", m=500, k=800, n=64)
        m = search_mapping(layer, EYERISS_CONFIG)
        words = EYERISS_CONFIG.buffer_words
        assert 2 * (m.tm * m.tk + m.tk * m.tn) + m.tm * m.tn <= words

    def test_small_layer_held_entirely(self):
        layer = MatmulLayer("l", m=13, k=20, n=14)
        m = search_mapping(layer, EYERISS_CONFIG)
        assert (m.tm, m.tn, m.tk) == (13, 14, 20)
        assert m.reads_a == 13 * 20
        assert m.reads_b == 20 * 14
        assert m.writes_c == 13 * 14

    def test_traffic_includes_rereads(self):
        # A huge layer cannot keep any operand resident: traffic exceeds
        # the compulsory minimum.
        layer = MatmulLayer("l", m=5000, k=5000, n=64)
        m = search_mapping(layer, EYERISS_CONFIG)
        compulsory = layer.m * layer.k + layer.k * layer.n + layer.m * layer.n
        assert m.traffic_words > compulsory

    def test_infeasible_buffer_raises(self):
        tiny = SpatialArrayConfig(global_buffer_bytes=256)
        layer = MatmulLayer("l", m=1000, k=1000, n=1000)
        with pytest.raises(ValueError):
            search_mapping(layer, tiny)

    @given(
        m=st.integers(1, 400),
        k=st.integers(1, 400),
        n=st.integers(1, 64),
    )
    @settings(max_examples=40, deadline=None)
    def test_mapping_always_feasible_and_covers_layer(self, m, k, n):
        layer = MatmulLayer("l", m=m, k=k, n=n)
        mapping = search_mapping(layer, EYERISS_CONFIG)
        assert 1 <= mapping.tm <= max(m, EYERISS_CONFIG.rows)
        assert 1 <= mapping.tn <= n
        assert 1 <= mapping.tk <= k
        # Every operand is read at least once and outputs written once.
        assert mapping.reads_a >= m * k
        assert mapping.reads_b >= k * n
        assert mapping.writes_c == m * n


class TestAnalyzeLayer:
    def test_unlimited_bandwidth_latency_is_compute(self):
        layer = MatmulLayer("l", m=130, k=100, n=14)
        analysis = analyze_layer(layer, EYERISS_CONFIG, None, freq_ghz=1.0)
        assert analysis.latency_ns == pytest.approx(
            compute_cycles(layer, EYERISS_CONFIG)
        )

    def test_limited_bandwidth_adds_memory_time(self):
        layer = MatmulLayer("l", m=130, k=100, n=14)
        unlimited = analyze_layer(layer, EYERISS_CONFIG, None)
        limited = analyze_layer(layer, EYERISS_CONFIG, 68.0)
        assert limited.latency_ns > unlimited.latency_ns

    def test_pe_utilization_bounded(self):
        layer = MatmulLayer("l", m=1300, k=200, n=28)
        analysis = analyze_layer(layer, EYERISS_CONFIG, None)
        assert 0 < analysis.useful_pe_utilization <= analysis.pe_utilization <= 1

    def test_sparse_layer_has_low_useful_utilization(self):
        layer = MatmulLayer("l", m=1000, k=1000, n=14, a_nnz=2000)
        analysis = analyze_layer(layer, EYERISS_CONFIG, None)
        assert analysis.useful_pe_utilization < 0.01
        assert analysis.pe_utilization > 0.5

    def test_higher_clock_needs_more_bandwidth(self):
        layer = MatmulLayer("l", m=1300, k=100, n=14)
        slow = analyze_layer(layer, EYERISS_CONFIG, None, freq_ghz=1.2)
        fast = analyze_layer(layer, EYERISS_CONFIG, None, freq_ghz=2.4)
        assert fast.bandwidth_gbps == pytest.approx(2 * slow.bandwidth_gbps)


class TestAnalyzeNetwork:
    def layers(self):
        return [
            MatmulLayer("a", m=260, k=100, n=16),
            MatmulLayer("b", m=260, k=260, n=16, a_nnz=1000),
        ]

    def test_latency_sums_layers(self):
        net = analyze_network(self.layers(), EYERISS_CONFIG, 68.0)
        assert net.latency_ns == pytest.approx(
            sum(a.latency_ns for a in net.layers)
        )

    def test_useful_fractions_bounded(self):
        net = analyze_network(self.layers(), EYERISS_CONFIG, 68.0)
        assert 0 < net.useful_compute_fraction < 1
        assert 0 < net.useful_traffic_fraction <= 1

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            analyze_network([], EYERISS_CONFIG)

    def test_latency_ms_conversion(self):
        net = analyze_network(self.layers(), EYERISS_CONFIG, None)
        assert net.latency_ms == pytest.approx(net.latency_ns * 1e-6)

    def test_mean_bandwidth_below_limit(self):
        net = analyze_network(self.layers(), EYERISS_CONFIG, 68.0)
        assert net.mean_bandwidth_gbps <= 68.0 + 1e-9
