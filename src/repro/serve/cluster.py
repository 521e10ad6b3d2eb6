"""Service-time tables and instance-level fault specs.

The serving loop is a *fast* discrete-event simulation layered over the
*expensive* per-workload simulations: each simulated accelerator
instance serves a request in exactly the latency the single-run harness
measured for that (system, benchmark) pair.  :func:`measure_service_times`
prices every benchmark once through the cached
:func:`repro.systems.run_system` path — a cache hit after the first call
— and the serving simulation then replays millions of requests without
touching the event-level simulator again.

Two service-time modes exist per benchmark:

* **exact** — the system's default single-run latency;
* **approx** — the graceful-degradation latency: for the accelerator,
  the same benchmark re-priced on the zero-contention ``analytical``
  NoC backend.  When there is no cheaper mode — the baseline machines,
  or an accelerator whose exact column already runs the ``analytical``
  NoC — the approx column mirrors the exact one with
  ``approximate_backend`` left ``None``, so reports never claim a
  degradation that did not happen.

Instance faults follow the :mod:`repro.accel.faults` conventions:
frozen, validated specs; seed-addressed :func:`random_instance_fault`
for reproducible fuzzing campaigns; ``math.inf`` duration for a
permanent fault.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.accel.config import AcceleratorConfig

#: Injectable instance-level fault kinds: a crashed instance (drops its
#: in-flight batch, serves nothing until recovery) and a degraded one
#: (keeps serving, ``factor`` times slower).
INSTANCE_FAULT_KINDS = ("crash", "degrade")


@dataclass(frozen=True)
class InstanceFault:
    """One injectable serving-instance fault.

    ``instance`` indexes the victim modulo the cluster size (so specs
    transfer across cluster sizes, like accelerator fault targets);
    ``duration_ms`` is the outage window, ``math.inf`` for permanent.
    """

    kind: str
    instance: int = 0
    at_ms: float = 0.0
    duration_ms: float = math.inf
    factor: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in INSTANCE_FAULT_KINDS:
            raise ValueError(
                f"unknown instance fault kind {self.kind!r}; "
                f"valid: {INSTANCE_FAULT_KINDS}"
            )
        if self.instance < 0:
            raise ValueError("fault instance index cannot be negative")
        if self.at_ms < 0:
            raise ValueError("fault onset cannot be negative")
        if not self.duration_ms > 0:
            raise ValueError("fault duration must be positive")
        if self.factor <= 1.0:
            raise ValueError("degrade factor must exceed 1")

    @property
    def permanent(self) -> bool:
        return math.isinf(self.duration_ms)

    def fingerprint(self) -> dict[str, float | str | int]:
        """Plain-data identity, embedded in the serving report."""
        return {
            "kind": self.kind,
            "instance": self.instance,
            "at_ms": self.at_ms,
            "duration_ms": (
                "inf" if self.permanent else self.duration_ms
            ),
            "factor": self.factor,
        }


def random_instance_fault(
    seed: int,
    kinds: Sequence[str] = INSTANCE_FAULT_KINDS,
    permanent_fraction: float = 0.5,
    max_start_ms: float = 500.0,
    max_duration_ms: float = 2_000.0,
) -> InstanceFault:
    """A deterministic, seed-addressed instance fault.

    The same seed always produces the same spec — the serving sibling of
    :func:`repro.accel.faults.random_fault`, so fuzzing campaigns over
    ``range(n)`` are reproducible and individually re-runnable.
    """
    rng = random.Random(seed)
    kind = rng.choice(list(kinds))
    permanent = rng.random() < permanent_fraction
    return InstanceFault(
        kind=kind,
        instance=rng.randrange(64),
        at_ms=rng.uniform(0.0, max_start_ms),
        duration_ms=(
            math.inf if permanent else rng.uniform(10.0, max_duration_ms)
        ),
        factor=rng.uniform(2.0, 8.0) if kind == "degrade" else 4.0,
    )


def parse_instance_fault(text: str) -> InstanceFault:
    """Parse a CLI fault spec.

    Grammar: ``KIND:INSTANCE@MS`` with optional suffixes
    ``+DURATION_MS`` (outage window; omitted means permanent) and
    ``xFACTOR`` (degrade slowdown).  Examples::

        crash:0@200          # instance 0 crashes at t=200 ms, for good
        crash:1@50+300       # instance 1 down for 300 ms
        degrade:0@100x6      # instance 0 six times slower from t=100 ms
    """
    try:
        kind, rest = text.split(":", 1)
        instance_text, rest = rest.split("@", 1)
        factor = 4.0
        if "x" in rest:
            rest, factor_text = rest.split("x", 1)
            factor = float(factor_text)
        duration = math.inf
        if "+" in rest:
            rest, duration_text = rest.split("+", 1)
            duration = float(duration_text)
        return InstanceFault(
            kind=kind.strip(),
            instance=int(instance_text),
            at_ms=float(rest),
            duration_ms=duration,
            factor=factor,
        )
    except ValueError as exc:
        raise ValueError(
            f"bad fault spec {text!r} (want KIND:INSTANCE@MS[+DURATION][xFACTOR], "
            f"e.g. crash:0@200 or degrade:1@100+500x6): {exc}"
        ) from None


@dataclass(frozen=True)
class ServiceTimes:
    """Per-benchmark service times of one system, exact and approximate.

    ``approximate_backend`` documents where the approx column came from
    (the ``"analytical"`` NoC for the accelerator) or ``None`` when the
    system has no cheaper mode and the approx column simply mirrors the
    exact one.
    """

    system: str
    exact_ms: Mapping[str, float]
    approx_ms: Mapping[str, float]
    approximate_backend: str | None = None

    def service_ms(self, benchmark_key: str, approximate: bool) -> float:
        table = self.approx_ms if approximate else self.exact_ms
        return table[benchmark_key]

    @property
    def has_approximate(self) -> bool:
        return self.approximate_backend is not None

    def fingerprint(self) -> dict[str, object]:
        return {
            "system": self.system,
            "exact_ms": dict(sorted(self.exact_ms.items())),
            "approx_ms": dict(sorted(self.approx_ms.items())),
            "approximate_backend": self.approximate_backend,
        }


#: The NoC backend that prices the accelerator's graceful-degradation
#: latency.
ACCEL_APPROX_BACKEND = "analytical"


def measure_service_times(
    system: str,
    benchmarks: Sequence[str],
    cache: object = None,
    noc_backend: str | None = None,
) -> ServiceTimes:
    """Price every benchmark on ``system`` through the cached run path.

    ``noc_backend`` overrides the accelerator's *exact* interconnect
    model; the approximate column runs :data:`ACCEL_APPROX_BACKEND`, and
    mirrors the exact column untagged when that is the same config.
    Results come from :func:`repro.systems.run_system`, so repeated
    serving experiments are cache hits and bit-identical across
    processes and ``--jobs`` settings.
    """
    from repro.exp.cache import DEFAULT_CACHE
    from repro.systems import run_system

    if cache is None:
        cache = DEFAULT_CACHE
    exact: dict[str, float] = {}
    approx: dict[str, float] = {}
    for key in dict.fromkeys(benchmarks):
        exact[key] = run_system(
            system, key, cache=cache, noc_backend=noc_backend
        ).latency_ms
    if system == "accel" and len(_accel_configs(noc_backend)) > 1:
        for key in exact:
            approx[key] = run_system(
                system, key, cache=cache, noc_backend=ACCEL_APPROX_BACKEND,
            ).latency_ms
        return ServiceTimes(
            system=system, exact_ms=exact, approx_ms=approx,
            approximate_backend=ACCEL_APPROX_BACKEND,
        )
    return ServiceTimes(
        system=system, exact_ms=exact, approx_ms=dict(exact),
        approximate_backend=None,
    )


def warm_service_cache(
    systems: Sequence[str],
    benchmarks: Sequence[str],
    jobs: int = 1,
    cache: object = None,
    noc_backend: str | None = None,
) -> None:
    """Pre-fill the result cache for every (system, benchmark) pair.

    With ``jobs > 1`` the misses fan out over the sweep runner's worker
    pool; :func:`measure_service_times` then answers entirely from the
    cache.  Because the underlying simulations are bit-deterministic and
    the cache is content-addressed, the serving report is identical
    whatever ``jobs`` was — the parallelism only moves wall-clock time.

    Accelerator pairs warm both service modes (the exact config, on
    ``noc_backend`` if given, and the :data:`ACCEL_APPROX_BACKEND`
    degradation config; one point when they coincide).  Their points
    warm the simulation entry that ``run_system``'s inner
    :func:`~repro.eval.accelerator.run_config` reads — not
    ``run_system``'s own ``SystemReport`` key, which the first
    measurement then stores from that cached simulation.  Unsupported
    (system, benchmark) pairs fail their warm-up point quietly here and
    loudly later in :func:`measure_service_times` if actually used.
    """
    from repro.exp.cache import DEFAULT_CACHE
    from repro.exp.runner import Point, run_sweep_detailed

    if cache is None:
        cache = DEFAULT_CACHE
    accel_configs = _accel_configs(noc_backend) if "accel" in systems else []
    points: list[Point] = []
    for system in dict.fromkeys(systems):
        for key in dict.fromkeys(benchmarks):
            if system == "accel":
                points.extend(Point(key, config) for config in accel_configs)
            else:
                points.append(Point(key, system=system))
    run_sweep_detailed(points, jobs=jobs, cache=cache)


def _accel_configs(noc_backend: str | None) -> list["AcceleratorConfig"]:
    """The distinct accelerator configs of the exact and approximate
    service modes, exact first — built by the ``accel`` system itself,
    so warm-up points and measurement share cache keys."""
    from repro.systems import create_system

    return list(dict.fromkeys(
        create_system("accel", noc_backend=backend).config
        for backend in (noc_backend, ACCEL_APPROX_BACKEND)
    ))
