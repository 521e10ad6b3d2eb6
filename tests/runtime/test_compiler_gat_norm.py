"""Tests for the GAT attention-normalization compile path (the variant
the paper's evaluation removed)."""

import numpy as np
import pytest

from repro.accel import CPU_ISO_BW
from repro.graphs import citation_graph
from repro.models import GAT
from repro.runtime import compile_model, simulate


@pytest.fixture
def graph():
    g = citation_graph(50, 120, seed=3)
    g.node_features = np.zeros((50, 30), dtype=np.float32)
    return g


def test_normalized_gat_adds_one_layer_per_attention_layer(graph):
    plain = compile_model(GAT(30, 8, 7, normalize=False), graph)
    normed = compile_model(GAT(30, 8, 7, normalize=True), graph)
    assert len(normed.layers) == len(plain.layers) + 2
    names = [l.name for l in normed.layers]
    assert "gat0.attn_normalize" in names
    assert "gat1.attn_normalize" in names


def test_normalization_layer_reduces_per_head_scores(graph):
    normed = compile_model(GAT(30, 8, 7, num_heads=4, normalize=True), graph)
    norm_layer = next(
        l for l in normed.layers if l.name == "gat0.attn_normalize"
    )
    assert norm_layer.agg_width_values == 4  # one value per head
    deg = len(graph.neighbors(0))
    assert norm_layer.tasks.gather_count[0] == deg + 1


def test_normalization_costs_simulated_time(graph):
    plain = simulate(
        compile_model(GAT(30, 8, 7, normalize=False), graph), CPU_ISO_BW
    )
    normed = simulate(
        compile_model(GAT(30, 8, 7, normalize=True), graph), CPU_ISO_BW
    )
    assert normed.latency_ns > plain.latency_ns


def test_paper_configuration_is_unnormalized(graph):
    # Section VI: "the attention normalization step was removed to match
    # our accelerator implementation".
    from repro.models import Benchmark, benchmark_model

    model = benchmark_model(Benchmark("GAT", "cora"))
    assert model.normalize is False
