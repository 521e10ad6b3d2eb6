"""The benchmark suite: the paper's Table VII rows plus extensions.

Six (model, input graph) pairs are evaluated throughout the paper:

====== =========== =========================================
Model  Input graph Notes
====== =========== =========================================
GCN    Cora        spectral ConvGNN, 16-wide hidden
GCN    Citeseer
GCN    Pubmed
GAT    Cora        8 heads x 8, attention normalization off
MPNN   QM9_1000    edge-network messages, GRU, T=3
PGNN   DBLP_1      power-graph convolution, degree state
====== =========== =========================================

:data:`EXTENSION_BENCHMARKS` adds the post-paper rows (GraphSAGE, GIN)
the layer IR made one-description cheap.  Paper tables and goldens keep
iterating :data:`BENCHMARKS`; name resolution, the CLI, and every
execution system accept all rows.

Adding a model family takes one model file under ``src/repro/models/``
(emitting its :class:`~repro.models.ir.ModelIR`) plus one
:data:`MODEL_FAMILIES` entry and benchmark row here — no edits in
``runtime/``, ``systems/``, or ``baselines/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

from repro.errors import lookup
from repro.graphs.datasets import DATASETS, DatasetStats, load_dataset
from repro.graphs.graph import Graph, GraphSet
from repro.models.base import GNNModel
from repro.models.gat import GAT
from repro.models.gcn import GCN
from repro.models.gin import GIN
from repro.models.ir import ModelIR
from repro.models.mpnn import MPNN
from repro.models.pgnn import PGNN
from repro.models.sage import GraphSAGE
from repro.models.workload import ModelWorkload


@dataclass(frozen=True)
class Benchmark:
    """One benchmark row: a model family applied to one input dataset."""

    model: str
    dataset: str

    @property
    def key(self) -> str:
        """Stable identifier, e.g. ``"gcn-cora"``."""
        return f"{self.model.lower()}-{self.dataset.lower()}"

    def __str__(self) -> str:
        return f"{self.model} {DATASETS[self.dataset.lower()].name}"


#: Table VII benchmark rows, in paper order.
BENCHMARKS: tuple[Benchmark, ...] = (
    Benchmark("GCN", "cora"),
    Benchmark("GCN", "citeseer"),
    Benchmark("GCN", "pubmed"),
    Benchmark("GAT", "cora"),
    Benchmark("MPNN", "qm9_1000"),
    Benchmark("PGNN", "dblp_1"),
)

#: Post-paper rows: the sampling-bounded and sum-MLP families.
EXTENSION_BENCHMARKS: tuple[Benchmark, ...] = (
    Benchmark("SAGE", "cora"),
    Benchmark("SAGE", "pubmed"),
    Benchmark("GIN", "citeseer"),
)

#: Every registered row, paper order first.
ALL_BENCHMARKS: tuple[Benchmark, ...] = BENCHMARKS + EXTENSION_BENCHMARKS

#: The same rows keyed by their stable identifier, for O(1) resolution.
BENCHMARKS_BY_KEY: dict[str, Benchmark] = {b.key: b for b in ALL_BENCHMARKS}


def benchmark_by_key(key: str) -> Benchmark:
    """Resolve a benchmark key (``"gcn-cora"``); an unknown key raises
    :class:`~repro.errors.UnknownNameError` listing every valid key."""
    return lookup(BENCHMARKS_BY_KEY, "benchmark", key)


def resolve_benchmark_key(name: str) -> str:
    """Canonicalize a benchmark name, accepting shorthands.

    Exact keys (``"gcn-cora"``) pass through.  A dataset name —
    ``"pubmed"``, ``"qm9_1000"``, or an underscore-prefix of one like
    ``"qm9"`` / ``"dblp"`` — or a model family name (``"gin"``) resolves
    to its unique benchmark's key.  An ambiguous shorthand (``"cora"``
    names the GCN, GAT, *and* SAGE rows) raises a :class:`KeyError`
    listing every colliding candidate, and an unknown name
    :class:`~repro.errors.UnknownNameError` listing every key, so every
    CLI path that validates through this function exits 2 with a
    helpful message.  Callers must use the *returned* canonical key —
    never the shorthand — for cache fingerprints.
    """
    if name in BENCHMARKS_BY_KEY:
        return name
    lowered = name.lower()
    matches = [
        b.key for b in ALL_BENCHMARKS
        if b.dataset.lower() == lowered
        or b.dataset.lower().startswith(lowered + "_")
        or b.model.lower() == lowered
    ]
    if len(matches) == 1:
        return matches[0]
    if matches:
        raise KeyError(
            f"ambiguous benchmark {name!r}; candidates: {matches}"
        )
    return benchmark_by_key(name).key


@dataclass(frozen=True)
class ModelFamily:
    """One model family: constructor plus per-dataset sizing."""

    name: str
    cls: type[GNNModel]
    config: Callable[[DatasetStats], dict[str, Any]]


#: Model family name -> family, used by :func:`benchmark_model`.
MODEL_FAMILIES: dict[str, ModelFamily] = {
    family.name: family for family in (
        ModelFamily("GCN", GCN, lambda stats: {
            "in_features": stats.vertex_features,
            "hidden_features": 16,
            "out_features": stats.output_features,
        }),
        ModelFamily("GAT", GAT, lambda stats: {
            "in_features": stats.vertex_features,
            "hidden_features": 8,
            "out_features": stats.output_features,
            "num_heads": 8,
            "normalize": False,
        }),
        ModelFamily("MPNN", MPNN, lambda stats: {
            "node_features": stats.vertex_features,
            "edge_features": stats.edge_features,
            "hidden": stats.output_features,
            "out_features": stats.output_features,
            "steps": 3,
        }),
        ModelFamily("PGNN", PGNN, lambda stats: {
            "in_features": stats.vertex_features,
            "hidden_features": 8,
            "out_features": stats.output_features,
            "num_layers": 3,
        }),
        ModelFamily("SAGE", GraphSAGE, lambda stats: {
            "in_features": stats.vertex_features,
            "hidden_features": 32,
            "out_features": stats.output_features,
            "sample_size": 10,
        }),
        ModelFamily("GIN", GIN, lambda stats: {
            "in_features": stats.vertex_features,
            "hidden_features": 16,
            "out_features": stats.output_features,
            "eps": 0.0,
        }),
    )
}


def benchmark_model_config(benchmark: Benchmark) -> dict[str, Any]:
    """The model's constructor hyper-parameters as plain data.

    One ``{"family": ..., **constructor_kwargs}`` document per benchmark
    — the single source :func:`benchmark_model` builds from.
    """
    stats = DATASETS[benchmark.dataset.lower()]
    family = lookup(MODEL_FAMILIES, "model family", benchmark.model.upper())
    return {"family": family.name, **family.config(stats)}


def benchmark_model(benchmark: Benchmark) -> GNNModel:
    """Construct the model for a benchmark, sized to its dataset."""
    params = benchmark_model_config(benchmark)
    return MODEL_FAMILIES[params.pop("family")].cls(**params)


def load_benchmark(benchmark: Benchmark) -> tuple[GNNModel, Graph | GraphSet]:
    """Model plus input data for a benchmark."""
    return benchmark_model(benchmark), load_dataset(benchmark.dataset)


def benchmark_ir(benchmark: Benchmark) -> ModelIR:
    """The per-layer op-stream IR of one benchmark inference pass."""
    model, data = load_benchmark(benchmark)
    return model.layer_ir(data)


@lru_cache(maxsize=None)
def benchmark_ir_digest(benchmark_key: str) -> str:
    """Content hash of a benchmark's IR, memoized per process.

    This digest is the ``model`` half of every cross-system cache
    fingerprint: it covers all shape-affecting hyper-parameters (they
    determine the emitted spec stream), so cached results can never
    alias across IR revisions or model-config changes.
    """
    return benchmark_ir(benchmark_by_key(benchmark_key)).digest()


def benchmark_workload(benchmark: Benchmark) -> ModelWorkload:
    """Analytical workload of one benchmark inference pass."""
    model, data = load_benchmark(benchmark)
    return model.workload(data)
