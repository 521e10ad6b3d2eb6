"""Search drivers over a :class:`~repro.space.space.ConfigSpace`.

Three drivers, named in :data:`DRIVERS` for the ``repro dse`` CLI:

* ``grid`` — the first N points of the deterministic grid enumeration;
* ``random`` — N distinct seeded samples (the unbiased baseline every
  smarter driver is judged against);
* ``evolutionary`` — a (μ+λ) loop: seeded random init, non-dominated
  rank + latency selection over every evaluation so far, single-step
  grid mutations (:meth:`ConfigSpace.mutate`) for children.

Every driver spends the same currency — *evaluations* — and every
evaluation is one :class:`repro.exp.runner.Point` flowing through
``run_sweep_detailed``: the process pool, the retry policy, the
per-process memo, and the persistent result cache all apply unchanged,
which is what makes thousand-point searches cheap to re-run and immune
to individual point failures (a failed point is recorded and excluded
from the frontier, it does not abort the search).

Determinism contract: a (space, driver, budget, seed) quadruple always
proposes the same points in the same order, and simulation is
bit-deterministic, so :meth:`DseResult.document` is byte-identical
across runs at any ``jobs`` — the property the ``dse-smoke`` CI job
pins.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.accel.config import AcceleratorConfig
from repro.dse.pareto import (
    OBJECTIVES,
    hypervolume_proxy,
    objective_bounds,
    pareto_frontier,
)
from repro.errors import lookup
from repro.exp.cache import DEFAULT_CACHE
from repro.space import ConfigSpace, SpacePoint, get_default_space


@dataclass
class Evaluation:
    """One simulated (or cache-served) space point of a search."""

    point: SpacePoint
    config: AcceleratorConfig
    status: str  # run_sweep_detailed statuses: ok/cached/timeout/crash/...
    latency_ms: float | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")

    @property
    def objectives(self) -> tuple[float, float, float] | None:
        """(latency_ms, total_alus, total_bandwidth_gbps), all minimized;
        None for failed points (they never join the frontier)."""
        if self.latency_ms is None:
            return None
        return (
            self.latency_ms,
            float(self.config.total_alus),
            float(self.config.total_bandwidth_gbps),
        )

    def to_dict(self) -> dict[str, Any]:
        objectives = self.objectives
        return {
            "name": self.point.config_name,
            "values": self.point.value_map,
            # "cached" is an execution detail, not a result property —
            # normalizing it keeps reports byte-identical cold vs warm.
            "status": "ok" if self.status == "cached" else self.status,
            "error": self.error,
            "objectives": (
                None if objectives is None
                else dict(zip(OBJECTIVES, objectives))
            ),
        }


@dataclass
class DseResult:
    """Everything one search produced, in evaluation order."""

    benchmark: str
    space_name: str
    driver: str
    seed: int
    budget: int
    noc_backend: str
    evaluations: list[Evaluation] = field(default_factory=list)
    init_count: int = 0
    generations: int = 0

    @property
    def ok_evaluations(self) -> list[Evaluation]:
        return [e for e in self.evaluations if e.ok]

    @property
    def failures(self) -> list[Evaluation]:
        return [e for e in self.evaluations if not e.ok]

    def bounds(self) -> list[tuple[float, float]]:
        """The reference objective box: every successful evaluation."""
        return objective_bounds(
            [e.objectives for e in self.ok_evaluations]
        )

    def frontier(self) -> list[Evaluation]:
        """Non-dominated successful evaluations, sorted by objectives
        (then name, for byte-stable reports)."""
        front = set(pareto_frontier(
            [e.objectives for e in self.ok_evaluations]
        ))
        chosen = [e for e in self.ok_evaluations if e.objectives in front]
        chosen.sort(key=lambda e: (e.objectives, e.point.config_name))
        return chosen

    def hypervolume(self) -> float:
        """Dominated-volume score of the final frontier (see
        :func:`repro.dse.pareto.hypervolume_proxy`)."""
        return hypervolume_proxy(
            [e.objectives for e in self.frontier()], self.bounds()
        )

    def init_hypervolume(self) -> float:
        """The same score for the first generation alone, under the same
        bounds — the evolutionary driver's non-worsening baseline."""
        init_ok = [
            e for e in self.evaluations[: self.init_count] if e.ok
        ]
        front = pareto_frontier([e.objectives for e in init_ok])
        return hypervolume_proxy(front, self.bounds())

    def document(self) -> dict[str, Any]:
        """The schema-v1 Pareto report (byte-identical across runs for
        one (space, driver, budget, seed) — no wall-clock fields)."""
        frontier = self.frontier()
        return {
            "schema_version": 1,
            "kind": "dse",
            "benchmark": self.benchmark,
            "space": self.space_name,
            "driver": self.driver,
            "seed": self.seed,
            "budget": self.budget,
            "noc_backend": self.noc_backend,
            "objectives": list(OBJECTIVES),
            "counts": {
                "evaluated": len(self.evaluations),
                "ok": len(self.ok_evaluations),
                "failed": len(self.failures),
                "frontier": len(frontier),
                "generations": self.generations,
                "init": self.init_count,
            },
            "reference_bounds": {
                name: [lo, hi]
                for name, (lo, hi) in zip(OBJECTIVES, self.bounds())
            },
            "hypervolume_proxy": self.hypervolume(),
            "init_hypervolume_proxy": self.init_hypervolume(),
            "frontier": [e.to_dict() for e in frontier],
            "evaluated": [e.to_dict() for e in self.evaluations],
        }


class _Evaluator:
    """Batch evaluation of space points through the sweep machinery.

    Dedupes by searchable values — a point two generations propose is
    simulated once and its :class:`Evaluation` reused — and accumulates
    every evaluation in proposal order for the final result.
    """

    def __init__(
        self,
        benchmark_key: str,
        jobs: int,
        cache: object,
        noc_backend: str | None,
        policy: Any,
        progress: Callable[[Evaluation], None] | None,
    ) -> None:
        self.benchmark_key = benchmark_key
        self.jobs = jobs
        self.cache = cache
        self.noc_backend = noc_backend
        self.policy = policy
        self.progress = progress
        self.seen: dict[tuple, Evaluation] = {}
        self.evaluations: list[Evaluation] = []

    def _config(self, point: SpacePoint) -> AcceleratorConfig:
        config = point.config()
        if self.noc_backend is not None:
            config = config.with_noc_backend(self.noc_backend)
        return config

    def __call__(self, points: list[SpacePoint]) -> list[Evaluation]:
        from repro.exp.runner import Point, run_sweep_detailed

        fresh: dict[tuple, tuple[SpacePoint, AcceleratorConfig]] = {}
        for point in points:
            if point.values not in self.seen and point.values not in fresh:
                fresh[point.values] = (point, self._config(point))
        if fresh:
            sweep_points = [
                Point(self.benchmark_key, config)
                for _, config in fresh.values()
            ]
            outcome = run_sweep_detailed(
                sweep_points, jobs=self.jobs, cache=self.cache,
                policy=self.policy,
            )
            for (values, (point, config)), result in zip(
                fresh.items(), outcome.results
            ):
                evaluation = Evaluation(
                    point=point,
                    config=config,
                    status=result.status,
                    latency_ms=(
                        result.report.latency_ms if result.ok else None
                    ),
                    error=result.error,
                )
                self.seen[values] = evaluation
                self.evaluations.append(evaluation)
                if self.progress is not None:
                    self.progress(evaluation)
        return [self.seen[p.values] for p in points]


def _distinct_samples(
    space: ConfigSpace, count: int, rng, seen: set
) -> list[SpacePoint]:
    """Up to ``count`` seeded samples with values not in ``seen``
    (bounded rejection; a small space may yield fewer)."""
    batch: list[SpacePoint] = []
    attempts = 0
    limit = max(1000, count * 200)
    while len(batch) < count and attempts < limit:
        attempts += 1
        point = space.sample(rng)
        if point.values in seen:
            continue
        seen.add(point.values)
        batch.append(point)
    return batch


def _select(evaluations: list[Evaluation], k: int) -> list[Evaluation]:
    """(μ+λ) survivor selection: non-dominated rank first (repeated
    frontier peeling), latency ascending within a rank."""
    remaining = [e for e in evaluations if e.ok]
    chosen: list[Evaluation] = []
    while remaining and len(chosen) < k:
        front = set(pareto_frontier([e.objectives for e in remaining]))
        layer = [e for e in remaining if e.objectives in front]
        layer.sort(key=lambda e: (e.objectives, e.point.config_name))
        chosen.extend(layer[: k - len(chosen)])
        remaining = [e for e in remaining if e.objectives not in front]
    return chosen


def _grid_driver(space: ConfigSpace, budget: int, rng, evaluate) -> int:
    """The first ``budget`` points of the deterministic grid order."""
    evaluate(list(itertools.islice(space.grid(), budget)))
    return 1


def _random_driver(space: ConfigSpace, budget: int, rng, evaluate) -> int:
    """``budget`` distinct seeded samples, one generation."""
    evaluate(_distinct_samples(space, budget, rng, set()))
    return 1


def _evolutionary_driver(
    space: ConfigSpace, budget: int, rng, evaluate
) -> int:
    """(μ+λ) evolutionary search within the evaluation budget.

    μ scales with the budget (2..8); children are single-parameter grid
    mutations of survivors, deduplicated against everything proposed so
    far.  Because the frontier is computed over *every* evaluation —
    init included — the final frontier can never be worse than the
    random init's (the non-worsening invariant the acceptance test
    pins).
    """
    mu = max(2, min(8, budget // 4))
    lam = mu
    seen: set = set()
    init = _distinct_samples(space, min(mu, budget), rng, seen)
    evaluated: list[Evaluation] = list(evaluate(init))
    spent = len(init)
    generations = 1
    while spent < budget:
        population = _select(evaluated, mu)
        want = min(lam, budget - spent)
        children: list[SpacePoint] = []
        guard = 0
        while len(children) < want and guard < want * 200:
            guard += 1
            if population:
                parent = population[
                    rng.randrange(len(population))
                ].point
                child = space.mutate(parent, rng)
            else:
                child = space.sample(rng)
            if child.values in seen:
                continue
            seen.add(child.values)
            children.append(child)
        if not children:
            break  # space exhausted around the survivors
        evaluated.extend(evaluate(children))
        spent += len(children)
        generations += 1
    return generations


#: Search drivers, by CLI name.
DRIVERS: dict[str, Callable[..., int]] = {
    "grid": _grid_driver,
    "random": _random_driver,
    "evolutionary": _evolutionary_driver,
}


def driver_names() -> tuple[str, ...]:
    """Driver names, listing order."""
    return tuple(DRIVERS)


def resolve_driver(name: str) -> Callable[..., int]:
    """The driver named ``name``, or
    :class:`~repro.errors.UnknownNameError`."""
    return lookup(DRIVERS, "search driver", name)


def run_dse(
    benchmark_key: str,
    space: ConfigSpace | None = None,
    driver: str = "random",
    points: int = 64,
    seed: int = 0,
    jobs: int = 1,
    cache: object = DEFAULT_CACHE,
    noc_backend: str | None = None,
    policy: Any = None,
    progress: Callable[[Evaluation], None] | None = None,
) -> DseResult:
    """One design-space search: drive ``driver`` for ``points``
    evaluations of ``benchmark_key`` over ``space``.

    Every evaluation rides :func:`repro.exp.runner.run_sweep_detailed`
    (``jobs`` workers, retry policy, memo + persistent cache), so
    re-running a search is near-free and a crashed or timed-out point
    is a recorded failure, not an aborted search.
    """
    from repro.models.registry import resolve_benchmark_key
    from repro.noc.backends import DEFAULT_BACKEND, validate_backend

    if points < 1:
        raise ValueError("points must be >= 1")
    benchmark_key = resolve_benchmark_key(benchmark_key)
    if noc_backend is not None:
        validate_backend(noc_backend)
    space = space if space is not None else get_default_space()
    driver_fn = resolve_driver(driver)

    evaluator = _Evaluator(
        benchmark_key, jobs, cache, noc_backend, policy, progress,
    )
    init_count = 0

    def evaluate(batch: list[SpacePoint]) -> list[Evaluation]:
        nonlocal init_count
        result = evaluator(batch)
        if init_count == 0:
            init_count = len(evaluator.evaluations)
        return result

    generations = driver_fn(space, points, random.Random(seed), evaluate)
    return DseResult(
        benchmark=benchmark_key,
        space_name=space.name,
        driver=driver,
        seed=seed,
        budget=points,
        noc_backend=noc_backend or DEFAULT_BACKEND,
        evaluations=evaluator.evaluations,
        init_count=init_count,
        generations=generations,
    )
