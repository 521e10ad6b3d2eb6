"""Core types of the execution-system layer.

The paper's headline numbers are *cross-system* comparisons: the same
benchmark priced on the simulated GNN accelerator, on the CPU/GPU
baseline machines (Table III / Table VII), and on the Eyeriss-like dense
dataflow accelerator of the Section II study.  This module defines the
shared vocabulary that lets all of them flow through one harness:

* :class:`ExecutionPlan` — a benchmark prepared for one system: the
  system, the canonical benchmark key, and the system's result-affecting
  parameters.  Its :meth:`~ExecutionPlan.fingerprint` is the result
  cache's one key document (:func:`repro.exp.cache.key_document`), so
  two systems can never share a cache entry.
* :class:`SystemReport` — the uniform result: a latency plus a
  system-specific breakdown, carrying the full
  :class:`~repro.runtime.report.SimulationReport` for simulated systems.
* :class:`ExecutionBackend` — the protocol every system implements:
  ``prepare(benchmark_key) -> ExecutionPlan`` then
  ``execute(plan, cache=DEFAULT_CACHE) -> SystemReport``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.exp.cache import DEFAULT_CACHE, content_key, key_document

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.report import SimulationReport


class UnsupportedWorkloadError(ValueError):
    """A system cannot map the requested benchmark (e.g. the dense
    Eyeriss dataflow study cannot map PGNN's dependent traversals)."""


@dataclass(frozen=True)
class ExecutionPlan:
    """A benchmark prepared for one system.

    ``params`` is the system's *result-affecting* configuration as plain
    data (machine peaks, the resolved accelerator config, array
    geometry); the key document carries it as one nested ``params``
    stanza.
    """

    system: str
    benchmark_key: str
    params: tuple[tuple[str, Any], ...] = ()

    def fingerprint(self) -> dict[str, Any]:
        """The plan's cache-key document: ``{schema, system, benchmark,
        ir, params}``.  Always names the system, so no two systems can
        collide on a cache key."""
        return key_document(self.system, self.benchmark_key,
                            params=dict(self.params))

    @property
    def key(self) -> str:
        """Content-hash result-cache key for executions of this plan."""
        return content_key(self.fingerprint())


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

    ``prepare`` binds a canonical benchmark key
    (:func:`repro.models.registry.resolve_benchmark_key`) to the
    system's parameters as an :class:`ExecutionPlan`; every registered
    benchmark has a plan on every system.  ``execute`` runs the plan and
    returns a :class:`SystemReport`, raising
    :class:`UnsupportedWorkloadError` for a benchmark the system cannot
    map.  ``cache`` is the result cache the caller chose (see :func:`repro.exp.cache.resolve_cache`);
    systems that run inner simulations (``accel``, ``multichip``) read
    and store them there, the analytical systems ignore it.
    """

    name: str

    def prepare(self, benchmark_key: str) -> ExecutionPlan:
        ...  # pragma: no cover - protocol

    def execute(
        self,
        plan: ExecutionPlan,
        cache: object = DEFAULT_CACHE,
    ) -> SystemReport:
        ...  # pragma: no cover - protocol
