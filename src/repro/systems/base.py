"""Core types of the execution-system layer.

The paper's headline numbers are *cross-system* comparisons: the same
benchmark priced on the simulated GNN accelerator, on the CPU/GPU
baseline machines (Table III / Table VII), and on the Eyeriss-like dense
dataflow accelerator of the Section II study.  This module defines the
shared vocabulary that lets all of them flow through one harness:

* :class:`Workload` — what is being run: the benchmark key, the resolved
  input graph's signature, and the model's constructor hyper-parameters.
  Its :meth:`~Workload.fingerprint` is the workload half of every
  cross-system cache key.
* :class:`ExecutionPlan` — a prepared (system, workload, parameters)
  triple.  Its :meth:`~ExecutionPlan.fingerprint` — which always names
  the system — is hashed into the result-cache key, so two systems can
  never share a cache entry.
* :class:`SystemReport` — the uniform result: a latency plus a
  system-specific breakdown, carrying the full
  :class:`~repro.runtime.report.SimulationReport` for simulated systems.
* :class:`ExecutionBackend` — the protocol every system implements:
  ``prepare(workload) -> ExecutionPlan`` then
  ``execute(plan, observer=None, cache=DEFAULT_CACHE) -> SystemReport``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.exp.cache import DEFAULT_CACHE, SCHEMA_VERSION, content_key
from repro.graphs.datasets import DATASETS
from repro.models.registry import benchmark_by_key, benchmark_model_config

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.models.base import GNNModel
    from repro.models.registry import Benchmark
    from repro.obs.observer import Observer
    from repro.runtime.report import SimulationReport


class UnsupportedWorkloadError(ValueError):
    """A system cannot map the requested workload (e.g. the dense
    Eyeriss dataflow study only covers the GCN benchmarks)."""


@dataclass(frozen=True)
class Workload:
    """One benchmark inference pass, resolved to content.

    The fields capture everything that determines the work: the input
    graph's signature (Table V row) and the model's constructor
    hyper-parameters (:func:`repro.models.registry.benchmark_model_config`).
    Keying caches on this *content* — not just the benchmark name —
    means a re-sized model or re-generated dataset invalidates stale
    entries across every system at once.
    """

    benchmark_key: str
    family: str
    dataset: str
    seed: int
    graphs: int
    total_nodes: int
    total_edges: int
    vertex_features: int
    edge_features: int
    output_features: int
    model_config: tuple[tuple[str, Any], ...]

    @property
    def benchmark(self) -> "Benchmark":
        """The registry row this workload was resolved from."""
        return benchmark_by_key(self.benchmark_key)

    def load(self) -> tuple["GNNModel", Any]:
        """Materialize the model and input data (delegates to the
        model registry; datasets are memoized per process)."""
        from repro.models.registry import load_benchmark

        return load_benchmark(self.benchmark, seed=self.seed)

    def fingerprint(self) -> dict[str, Any]:
        """The workload half of a cross-system cache key (plain data).

        The model stanza is the benchmark's IR content digest
        (:func:`repro.models.registry.benchmark_ir_digest`): it covers
        every shape-affecting hyper-parameter — they determine the
        emitted spec stream — plus the IR schema itself, so cached
        results can never alias across model-config changes *or* IR
        revisions.
        """
        from repro.models.registry import benchmark_ir_digest

        return {
            "benchmark": self.benchmark_key,
            "seed": self.seed,
            "graph": {
                "dataset": self.dataset,
                "graphs": self.graphs,
                "total_nodes": self.total_nodes,
                "total_edges": self.total_edges,
                "vertex_features": self.vertex_features,
                "edge_features": self.edge_features,
                "output_features": self.output_features,
            },
            "model": {
                "family": self.family,
                "ir": benchmark_ir_digest(self.benchmark_key, self.seed),
            },
        }


def resolve_workload(benchmark_key: str, seed: int = 0) -> Workload:
    """Resolve a benchmark key into a content-addressed :class:`Workload`.

    Dataset shorthands (``"qm9"``) canonicalize first, so a shorthand
    and its full key always share one cache fingerprint.  Unknown keys
    raise the registry's :class:`KeyError` listing every valid key — the
    single source of truth the CLI's exit-2 paths and every backend
    share.
    """
    from repro.models.registry import resolve_benchmark_key

    benchmark_key = resolve_benchmark_key(benchmark_key)
    benchmark = benchmark_by_key(benchmark_key)
    stats = DATASETS[benchmark.dataset.lower()]
    params = benchmark_model_config(benchmark)
    family = params.pop("family")
    return Workload(
        benchmark_key=benchmark_key,
        family=family,
        dataset=benchmark.dataset.lower(),
        seed=seed,
        graphs=stats.graphs,
        total_nodes=stats.total_nodes,
        total_edges=stats.total_edges,
        vertex_features=stats.vertex_features,
        edge_features=stats.edge_features,
        output_features=stats.output_features,
        model_config=tuple(sorted({"family": family, **params}.items())),
    )


@dataclass(frozen=True)
class ExecutionPlan:
    """A workload prepared for one system.

    ``params`` is the system's *result-affecting* configuration as plain
    data (machine peaks, the resolved accelerator config, array
    geometry); it feeds the fingerprint.  ``payload`` carries prepared
    non-fingerprint baggage (e.g. the resolved
    :class:`~repro.accel.config.AcceleratorConfig` instance) and is
    excluded from equality and hashing.
    """

    system: str
    workload: Workload
    params: tuple[tuple[str, Any], ...] = ()
    payload: Any = field(default=None, compare=False, repr=False)

    def fingerprint(self) -> dict[str, Any]:
        """Plain-data identity of this plan.  Always names the system,
        so no two systems can collide on a cache key."""
        return {
            "system": self.system,
            "workload": self.workload.fingerprint(),
            "params": dict(self.params),
        }

    @property
    def key(self) -> str:
        """Content-hash result-cache key for executions of this plan."""
        return content_key({"schema": SCHEMA_VERSION, **self.fingerprint()})


@dataclass
class SystemReport:
    """The uniform cross-system result: what :mod:`repro.eval` consumes.

    ``breakdown`` holds system-specific terms (roofline latency
    components for the baselines, per-layer latencies and utilizations
    for simulated systems).  ``detail`` carries the full
    :class:`~repro.runtime.report.SimulationReport` when the system is
    the simulated accelerator — bit-identical to a direct
    :func:`repro.runtime.engine.simulate` call.
    """

    system: str
    benchmark: str
    latency_ms: float
    breakdown: dict[str, float] = field(default_factory=dict)
    detail: "SimulationReport | None" = None

    @property
    def latency_ns(self) -> float:
        return self.latency_ms * 1e6

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SystemReport({self.benchmark} on {self.system}: "
            f"{self.latency_ms:.3f} ms)"
        )


@runtime_checkable
class ExecutionBackend(Protocol):
    """What every execution system implements.

    ``prepare`` resolves a workload into a content-addressed
    :class:`ExecutionPlan` (raising :class:`UnsupportedWorkloadError`
    for workloads the system cannot map); ``execute`` runs the plan and
    returns a :class:`SystemReport`.  ``observer`` attaches the
    :mod:`repro.obs` layer — executing with one never changes the
    report.  ``cache`` is the result cache the caller chose (see
    :func:`repro.exp.cache.resolve_cache`); systems that run inner
    simulations (``accel``, ``multichip``) read and store them there,
    the analytical systems ignore it.
    """

    name: str

    def prepare(self, workload: Workload) -> ExecutionPlan:
        ...  # pragma: no cover - protocol

    def execute(
        self,
        plan: ExecutionPlan,
        observer: "Observer | None" = None,
        cache: object = DEFAULT_CACHE,
    ) -> SystemReport:
        ...  # pragma: no cover - protocol
