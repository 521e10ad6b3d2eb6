"""Tests for the benchmark registry."""

import pytest

from repro.models import (
    ALL_BENCHMARKS,
    BENCHMARKS,
    EXTENSION_BENCHMARKS,
    GAT,
    GCN,
    GIN,
    MPNN,
    PGNN,
    Benchmark,
    GraphSAGE,
    benchmark_model,
    benchmark_workload,
    load_benchmark,
)
from repro.models.registry import resolve_benchmark_key


def test_six_table7_rows():
    assert len(BENCHMARKS) == 6
    assert [b.model for b in BENCHMARKS] == [
        "GCN", "GCN", "GCN", "GAT", "MPNN", "PGNN",
    ]


def test_keys_are_stable():
    assert BENCHMARKS[0].key == "gcn-cora"
    assert BENCHMARKS[5].key == "pgnn-dblp_1"


@pytest.mark.parametrize(
    "bench, model_type",
    [
        (Benchmark("GCN", "cora"), GCN),
        (Benchmark("GAT", "cora"), GAT),
        (Benchmark("MPNN", "qm9_1000"), MPNN),
        (Benchmark("PGNN", "dblp_1"), PGNN),
    ],
)
def test_model_families(bench, model_type):
    assert isinstance(benchmark_model(bench), model_type)


def test_models_are_sized_for_their_dataset():
    model, data = load_benchmark(Benchmark("GCN", "pubmed"))
    assert model.in_features == data.num_node_features == 500
    assert model.out_features == 3


def test_unknown_model_rejected():
    with pytest.raises(KeyError):
        benchmark_model(Benchmark("RNN", "cora"))


@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.key)
def test_workloads_are_nonempty(bench):
    work = benchmark_workload(bench)
    assert work.total_flops > 0
    assert work.total_bytes > 0


def test_mpnn_is_the_compute_heavy_benchmark():
    """Section VI: MPNN has by far the largest compute requirement."""
    flops = {b.key: benchmark_workload(b).total_flops for b in BENCHMARKS}
    assert flops["mpnn-qm9_1000"] == max(flops.values())
    assert flops["pgnn-dblp_1"] == min(flops.values())


class TestExtensionRows:
    def test_paper_rows_are_unchanged(self):
        # Goldens iterate BENCHMARKS: the extension rows must extend
        # ALL_BENCHMARKS without perturbing the paper tuple.
        assert ALL_BENCHMARKS[:6] == BENCHMARKS
        assert ALL_BENCHMARKS[6:] == EXTENSION_BENCHMARKS
        assert [b.key for b in EXTENSION_BENCHMARKS] == [
            "sage-cora", "sage-pubmed", "gin-citeseer",
        ]

    @pytest.mark.parametrize(
        "bench, model_type",
        [
            (Benchmark("SAGE", "cora"), GraphSAGE),
            (Benchmark("SAGE", "pubmed"), GraphSAGE),
            (Benchmark("GIN", "citeseer"), GIN),
        ],
        ids=lambda x: x.key if isinstance(x, Benchmark) else x.__name__,
    )
    def test_extension_models_construct(self, bench, model_type):
        model, data = load_benchmark(bench)
        assert isinstance(model, model_type)
        assert model.in_features == data.num_node_features

    @pytest.mark.parametrize("bench", EXTENSION_BENCHMARKS,
                             ids=lambda b: b.key)
    def test_extension_workloads_are_nonempty(self, bench):
        work = benchmark_workload(bench)
        assert work.total_flops > 0
        assert work.total_bytes > 0


class TestShorthandResolution:
    def test_exact_keys_pass_through(self):
        assert resolve_benchmark_key("sage-pubmed") == "sage-pubmed"

    def test_unique_dataset_shorthand(self):
        assert resolve_benchmark_key("qm9") == "mpnn-qm9_1000"
        assert resolve_benchmark_key("dblp") == "pgnn-dblp_1"

    def test_model_family_shorthand(self):
        assert resolve_benchmark_key("gin") == "gin-citeseer"
        assert resolve_benchmark_key("mpnn") == "mpnn-qm9_1000"

    def test_three_way_cora_ambiguity_lists_every_candidate(self):
        with pytest.raises(KeyError) as excinfo:
            resolve_benchmark_key("cora")
        message = str(excinfo.value)
        assert "ambiguous" in message
        for key in ("gcn-cora", "gat-cora", "sage-cora"):
            assert key in message

    @pytest.mark.parametrize("name, candidates", [
        ("pubmed", ("gcn-pubmed", "sage-pubmed")),
        ("gcn", ("gcn-cora", "gcn-citeseer", "gcn-pubmed")),
        ("sage", ("sage-cora", "sage-pubmed")),
    ])
    def test_ambiguous_shorthands_list_all_collisions(
        self, name, candidates
    ):
        with pytest.raises(KeyError) as excinfo:
            resolve_benchmark_key(name)
        message = str(excinfo.value)
        assert "ambiguous" in message
        for key in candidates:
            assert key in message

    def test_unknown_name_lists_every_row(self):
        with pytest.raises(KeyError) as excinfo:
            resolve_benchmark_key("bert")
        message = str(excinfo.value)
        for bench in ALL_BENCHMARKS:
            assert bench.key in message
