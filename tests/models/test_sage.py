"""Tests for the GraphSAGE extension model."""

import numpy as np
import pytest

from repro.models import GraphSAGE
from repro.models.workload import DenseMatmul, EdgeAggregation

from tests.models.conftest import permute_graph  # noqa: F401  (fixtures)


def make(**overrides) -> GraphSAGE:
    defaults = dict(in_features=20, hidden_features=16, out_features=5,
                    sample_size=4, seed=0)
    defaults.update(overrides)
    return GraphSAGE(**defaults)


def test_output_shape(small_graph):
    out = make().forward(small_graph)
    assert out.shape == (60, 5)


def test_output_rows_are_probabilities(small_graph):
    out = make().forward(small_graph)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-5)


def test_deterministic_sampling(small_graph):
    a = make(seed=7).forward(small_graph)
    b = make(seed=7).forward(small_graph)
    assert np.array_equal(a, b)


def test_different_seed_samples_differently(small_graph):
    a = make(seed=7).forward(small_graph)
    b = make(seed=8).forward(small_graph)
    assert not np.allclose(a, b)


def test_feature_width_mismatch_raises(small_graph):
    with pytest.raises(ValueError):
        make(in_features=21).forward(small_graph)


def test_invalid_sample_size_rejected():
    with pytest.raises(ValueError):
        make(sample_size=0)


def test_full_sampling_matches_unbounded(small_graph):
    """When the sample covers every neighbourhood the RNG has no effect:
    two over-sized sample budgets (same weights) give the same answer."""
    big = int(small_graph.degrees().max())
    a = make(sample_size=big, seed=1).forward(small_graph)
    b = make(sample_size=big + 10, seed=1).forward(small_graph)
    assert np.allclose(a, b, atol=1e-5)


class TestWorkload:
    def test_gather_bounded_by_sample(self, small_graph):
        work = make(sample_size=3).workload(small_graph)
        agg = work.by_type(EdgeAggregation)[0]
        assert agg.num_inputs <= 3 * small_graph.num_nodes

    def test_projection_sees_concatenated_input(self, small_graph):
        work = make().workload(small_graph)
        proj = work.by_type(DenseMatmul)[0]
        assert proj.k == 2 * 20

    def test_larger_sample_means_more_aggregation(self, small_graph):
        small = make(sample_size=2).workload(small_graph)
        large = make(sample_size=8).workload(small_graph)
        assert (
            large.aggregation_flops > small.aggregation_flops
        )


class TestCompilation:
    def test_compiles_and_simulates(self, small_graph):
        from repro.accel import CPU_ISO_BW
        from repro.runtime import compile_model, simulate

        program = compile_model(make(), small_graph)
        assert [l.name for l in program.layers] == [
            "sage0.sample_mean", "sage0.project",
            "sage1.sample_mean", "sage1.project",
        ]
        report = simulate(program, CPU_ISO_BW)
        assert report.latency_ns > 0

    def test_gather_fanout_bounded(self, small_graph):
        from repro.runtime import compile_model

        program = compile_model(make(sample_size=3), small_graph)
        gather_layer = program.layers[0]
        assert gather_layer.tasks.gather_count.max() <= 3
