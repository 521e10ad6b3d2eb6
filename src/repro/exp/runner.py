"""Fault-tolerant parallel sweep execution over the persistent result cache.

:func:`run_sweep` takes a list of :class:`Point`s — (benchmark, config,
clock) operating points — answers as many as it can from the caching
layers (per-process memo, then the on-disk
:class:`~repro.exp.cache.ResultCache`), and fans the misses out to a
``ProcessPoolExecutor``.  Simulation is bit-deterministic, so the
parallel path returns results identical to the serial one
(``tests/exp/test_determinism.py`` asserts this field by field); workers
hand reports back in the one encoding the persistent store writes
(:func:`repro.exp.cache.encode_report`).

The executor is *resilient* (``tests/exp/test_resilience.py``):

* every point runs under a :class:`RetryPolicy` — a per-point wall-clock
  budget, bounded retries with exponential backoff for transient worker
  failures, and crash isolation (a killed worker fails or retries *its*
  point; every other point still completes);
* a pool that cannot start degrades gracefully to serial execution;
* :func:`run_sweep_detailed` returns a :class:`SweepOutcome` carrying
  per-point status (ok / cached / timeout / crash / diverged) and the
  structured error taxonomy of :mod:`repro.exp.errors`, while the strict
  :func:`run_sweep` raises :class:`~repro.exp.errors.SweepFailed` if any
  point ends in failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.accel.config import AcceleratorConfig
from repro.exp.cache import (
    ACCEL_SYSTEM,
    DEFAULT_CACHE,
    ResultCache,
    decode_report,
    encode_report,
    lookup,
    point_key,
    resolve_cache,
    store,
)
from repro.exp.errors import STATUS_ERRORS, PointError, SweepFailed
from repro.runtime.report import SimulationReport

#: Figure 8's (configuration, baseline system) groups, in paper order.
FIGURE8_GROUPS: tuple[tuple[str, str], ...] = (
    ("CPU iso-BW", "cpu"),
    ("GPU iso-BW", "gpu"),
    ("GPU iso-FLOPS", "gpu"),
)

#: Tile clocks swept in Figure 8 (GHz).
FIGURE8_CLOCKS: tuple[float, ...] = (1.2, 2.4)

#: Growth of the delay between retries: each waits this times the last.
BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class Point:
    """One operating point of a sweep: a benchmark on an execution system.

    The default system is the simulated accelerator, where ``config``
    names the Table VI row and ``clock_ghz`` overrides its tile clock
    (Figure 8 sweeps the clock while the config identifies the row).
    Any other registered :mod:`repro.systems` name (``"cpu"``,
    ``"gpu"``, ``"eyeriss"``, ``"multichip"``) runs the benchmark on
    that backend instead.  Of those, only a ``multichip`` point may
    carry ``config``: the accelerator configuration of each chip.

    ``shard`` (a :class:`repro.partition.core.ShardSpec`, accel points
    only) restricts the point to one shard of a partitioned input: the
    shard's induced subgraph is compiled and simulated instead of the
    whole graph, under :func:`repro.exp.cache.point_key` with the shard
    stanza.  This is how partition scaling sweeps parallelize — each
    shard is an independent point flowing through the same pool, retry
    policy, and cache layers as every whole-graph point.
    """

    benchmark_key: str
    config: AcceleratorConfig | None = None
    clock_ghz: float | None = None
    system: str = ACCEL_SYSTEM
    shard: Any = None  # repro.partition.core.ShardSpec | None

    def __post_init__(self) -> None:
        if self.system == ACCEL_SYSTEM:
            if self.config is None:
                raise ValueError(
                    "accelerator points need an AcceleratorConfig; "
                    "pass config= or pick a different system="
                )
        else:
            if self.config is not None and self.system != "multichip":
                raise ValueError(
                    f"system {self.system!r} does not take an accelerator "
                    f"config; leave config=None"
                )
            if self.shard is not None:
                raise ValueError(
                    f"system {self.system!r} does not take a shard spec; "
                    f"shard points run on the accel system"
                )

    @property
    def resolved_config(self) -> AcceleratorConfig:
        """The configuration with the point's clock applied (accel and
        multichip points only)."""
        if self.config is None:
            raise ValueError(
                f"point on system {self.system!r} has no accelerator config"
            )
        if self.clock_ghz is None or self.clock_ghz == self.config.clock_ghz:
            return self.config
        return self.config.with_clock(self.clock_ghz)

    def backend(self) -> Any:
        """The :mod:`repro.systems` backend of a cross-system point.  A
        ``multichip`` point with a config builds its chips from that
        config's Table VI row, clock and NoC backend."""
        from repro.systems import create_system

        if self.config is None:
            return create_system(self.system, clock_ghz=self.clock_ghz)
        config = self.resolved_config
        backend = create_system(
            self.system, config_name=config.name,
            clock_ghz=config.clock_ghz, noc_backend=config.noc_backend,
        )
        if backend.config != config:
            raise ValueError(
                f"a {self.system} point takes a named row with only its "
                f"clock and NoC backend changed; {config.name!r} differs"
            )
        return backend

    def plan(self) -> Any:
        """The :class:`~repro.systems.base.ExecutionPlan` for a
        cross-system point (see :mod:`repro.systems`)."""
        return self.backend().prepare(self.benchmark_key)

    @property
    def key(self) -> str:
        """Content-hash cache key.

        Accelerator points (whole graph or one shard) keep
        :func:`repro.exp.cache.point_key` — the exact key direct
        ``run_config`` calls use, so sweeps and single runs share
        entries.  Cross-system points use their plan's
        :attr:`~repro.systems.base.ExecutionPlan.key`.  Both hash one
        :func:`~repro.exp.cache.key_document`, which names its system,
        so systems never collide.

        The key is computed on the first read and kept on the instance,
        outside the dataclass fields: equality, hashing, ``repr`` and
        :func:`dataclasses.replace` never see it.
        """
        key = self.__dict__.get("_key")
        if key is None:
            key = self._content_key()
            object.__setattr__(self, "_key", key)
        return key

    def _content_key(self) -> str:
        if self.system == ACCEL_SYSTEM:
            return point_key(self.benchmark_key, self.resolved_config,
                             self.shard)
        return self.plan().key

    def describe(self) -> str:
        if self.system != ACCEL_SYSTEM:
            clock = "" if self.clock_ghz is None else f" @{self.clock_ghz:g} GHz"
            return f"{self.benchmark_key} on {self.system}{clock}"
        config = self.resolved_config
        shard = (
            ""
            if self.shard is None
            else f" shard {self.shard.index}/{self.shard.chips}"
            f" ({self.shard.method})"
        )
        return (
            f"{self.benchmark_key}{shard} on {config.name} "
            f"@{config.clock_ghz:g} GHz"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the sweep runner tries before declaring a point failed.

    ``timeout_s`` is the per-point wall-clock budget: in worker processes
    it is enforced twice — an in-process wall watchdog (clean trip with a
    diagnosis) backed by a parent-side deadline that kills the pool if
    the worker stops responding entirely.  ``retries`` bounds *extra*
    attempts after a transient failure (a crashed worker); deterministic
    simulation failures are never retried.
    """

    timeout_s: float | None = None
    retries: int = 2
    backoff_s: float = 0.5

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive or None")
        if self.retries < 0:
            raise ValueError("retries cannot be negative")
        if self.backoff_s < 0:
            raise ValueError("backoff_s cannot be negative")

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based), exponential."""
        return self.backoff_s * BACKOFF_FACTOR ** max(0, attempt - 1)

    @property
    def deadline_s(self) -> float | None:
        """Parent-side kill deadline: the budget plus a grace period."""
        if self.timeout_s is None:
            return None
        return self.timeout_s + max(1.0, 0.5 * self.timeout_s)


@dataclass
class PointResult:
    """Final status of one operating point after all attempts.

    ``metrics`` is the per-point observability snapshot (see
    :meth:`repro.obs.Observer.snapshot`) collected when the sweep ran
    with ``collect_metrics=True``.  It is ``None`` for failed points and
    for cache hits — metrics describe an *execution*, so they are never
    part of the cached report and never feed the cache fingerprint.
    """

    point: Point
    status: str  # "ok" | "cached" | "timeout" | "crash" | "diverged" | "error"
    report: Any = None  # SimulationReport | SystemReport | None
    attempts: int = 0
    error: str | None = None
    metrics: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")

    def to_error(self) -> PointError:
        """The typed exception equivalent of a failed result."""
        cls = STATUS_ERRORS.get(self.status, PointError)
        if self.point.system == ACCEL_SYSTEM:
            config = self.point.resolved_config
            config_name, clock = config.name, config.clock_ghz
        else:
            config_name, clock = self.point.system, self.point.clock_ghz
        return cls(
            f"{self.point.describe()}: {self.error or self.status} "
            f"(after {self.attempts} attempt(s))",
            benchmark=self.point.benchmark_key,
            config_name=config_name,
            clock_ghz=clock,
            attempts=self.attempts,
        )

    def describe(self) -> str:
        if self.ok:
            return f"{self.point.describe()}: {self.status}"
        return (
            f"{self.point.describe()}: {self.status.upper()} after "
            f"{self.attempts} attempt(s) — {self.error or 'no detail'}"
        )


@dataclass
class SweepOutcome:
    """Per-point results of one sweep, in input order.

    Duplicate input points share one :class:`PointResult`;
    :attr:`failures` deduplicates, so a summary counts each distinct
    operating point once.
    """

    results: list[PointResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def reports(self) -> list[Any]:
        """One report per input point — a :class:`SimulationReport` for
        accelerator points, a :class:`~repro.systems.base.SystemReport`
        for cross-system points, None where the point failed."""
        return [result.report for result in self.results]

    @property
    def failures(self) -> list[PointResult]:
        """Distinct failed points, first-seen order."""
        seen: set[str] = set()
        failed = []
        for result in self.results:
            key = result.point.key
            if not result.ok and key not in seen:
                seen.add(key)
                failed.append(result)
        return failed

    def summary(self) -> str:
        distinct: dict[str, PointResult] = {}
        for result in self.results:
            distinct.setdefault(result.point.key, result)
        cached = sum(1 for r in distinct.values() if r.status == "cached")
        succeeded = sum(1 for r in distinct.values() if r.ok)
        failures = self.failures
        head = (
            f"{len(self.results)} points ({len(distinct)} distinct): "
            f"{succeeded} ok ({cached} cached), {len(failures)} failed"
        )
        if not failures:
            return head
        lines = [head] + [f"  {result.describe()}" for result in failures]
        return "\n".join(lines)

    def raise_on_failure(self) -> None:
        if not self.ok:
            raise SweepFailed(self)


def _config_with_wall_budget(
    config: AcceleratorConfig, timeout_s: float | None
) -> AcceleratorConfig:
    """Tighten the config's wall-clock watchdog to the sweep budget.

    The watchdog field is excluded from the cache fingerprint, so the
    tightened config still stores under the original point key.
    """
    if timeout_s is None:
        return config
    current = config.watchdog.max_wall_s
    budget = timeout_s if current is None else min(current, timeout_s)
    return dataclasses.replace(
        config,
        watchdog=dataclasses.replace(config.watchdog, max_wall_s=budget),
    )


def simulate_point(
    point: Point,
    config: AcceleratorConfig | None = None,
    observer: Any = None,
) -> SimulationReport:
    """Compile (memoized per process) and simulate one accelerator point.

    ``config`` overrides the point's resolved configuration — used to
    apply execution budgets without changing the cache identity.
    ``observer`` (a :class:`repro.obs.Observer`) attaches metrics
    collection; instrumentation never changes the report.  Shard points
    compile the shard's induced subgraph (memoized the same way)
    instead of the whole benchmark input.
    """
    from repro.eval.accelerator import program_for
    from repro.runtime.engine import simulate

    return simulate(
        program_for(point.benchmark_key, point.shard),
        config if config is not None else point.resolved_config,
        observer=observer,
    )


def execute_point(
    point: Point, observer: Any = None, cache: object = DEFAULT_CACHE
) -> Any:
    """Run one point on its execution system (no point caching, no
    budgets).

    Accelerator points go through :func:`simulate_point`; cross-system
    points prepare and execute on their registered
    :mod:`repro.systems` backend, whose inner simulations (``multichip``
    shards) read and store through ``cache``.
    """
    if point.system == ACCEL_SYSTEM:
        return simulate_point(point, observer=observer)
    backend = point.backend()
    plan = backend.prepare(point.benchmark_key)
    return backend.execute(plan, observer=observer, cache=cache)


def _sweep_observer() -> Any:
    """The cheap observer variant the sweep harness attaches per point:
    registry counters only — no timeline, phase trace, or profiler."""
    from repro.obs.observer import Observer

    return Observer(timeline=False, phases=False, kernel_profile=False)


def _classify_failure(exc: BaseException) -> tuple[str, str]:
    """Map an attempt's exception to a ``(status, message)`` pair.

    Delegates to the shared taxonomy (:func:`repro.exp.errors.classify`),
    so a watchdog trip, a deadlock, and a foreign exception classify the
    same in serial and pooled sweeps.
    """
    from repro.errors import ReproError
    from repro.exp.errors import classify

    status, _retryable = classify(exc)
    if isinstance(exc, ReproError):
        return status, str(exc)
    return status, f"{type(exc).__name__}: {exc}"


def _attempt(
    point: Point,
    timeout_s: float | None,
    collect_metrics: bool = False,
    cache: ResultCache | None = None,
) -> PointResult:
    """One attempt at ``point`` under the wall budget ``timeout_s``,
    classified instead of propagated.

    The single attempt body: serial sweeps use its result as is, and
    :func:`_resilient_worker` ships it across the process boundary.
    ``cache`` is the sweep's resolved store, handed to cross-system
    points for their inner simulations.
    """
    observer = _sweep_observer() if collect_metrics else None
    try:
        if point.system == ACCEL_SYSTEM:
            config = _config_with_wall_budget(point.resolved_config, timeout_s)
            if observer is None:
                report = simulate_point(point, config)
            else:
                report = simulate_point(point, config, observer=observer)
        else:
            report = execute_point(point, observer=observer, cache=cache)
    except Exception as exc:
        status, message = _classify_failure(exc)
        return PointResult(point, status, attempts=1, error=message)
    metrics = observer.snapshot() if observer is not None else None
    return PointResult(point, "ok", report, attempts=1, metrics=metrics)


def _resilient_worker(
    point: Point,
    timeout_s: float | None,
    collect_metrics: bool = False,
    cache: ResultCache | None = None,
) -> dict[str, Any]:
    """Pool worker: :func:`_attempt` as plain data.

    Returning plain data sidesteps exception pickling entirely; only a
    dead process (crash, kill, OOM) surfaces as a future exception in
    the parent.  A report crosses the process boundary as
    :func:`~repro.exp.cache.encode_report` — the entry the persistent
    cache stores — so a parallel result is byte-for-byte what a cache
    hit of the same point would yield.  The metrics snapshot is already
    plain data, so it rides along the same way.
    """
    result = _attempt(point, timeout_s, collect_metrics, cache)
    if not result.ok:
        return {"ok": False, "status": result.status, "error": result.error}
    payload: dict[str, Any] = {"ok": True, **encode_report(result.report)}
    if result.metrics is not None:
        payload["metrics"] = result.metrics
    return payload


def default_jobs() -> int:
    """Worker count when the caller does not choose one."""
    return max(1, os.cpu_count() or 1)


def run_sweep(
    points: Iterable[Point],
    jobs: int = 1,
    cache: object = DEFAULT_CACHE,
    progress: Callable[[Point, Any, bool], None] | None = None,
    policy: RetryPolicy | None = None,
) -> list[Any]:
    """Simulate every point, cached and (optionally) in parallel.

    Returns one report per input point, in input order; duplicate points
    are simulated once.  ``jobs <= 1`` runs inline in this process;
    ``jobs > 1`` distributes cache misses over a process pool.
    ``progress``, when given, is called as each point completes with
    ``(point, report, was_cached)``.

    This is the strict entry point: if any point ends in failure after
    the retry policy is exhausted it raises
    :class:`~repro.exp.errors.SweepFailed` (carrying the full
    :class:`SweepOutcome`); use :func:`run_sweep_detailed` to receive
    per-point statuses instead.
    """
    outcome = run_sweep_detailed(
        points, jobs=jobs, cache=cache, progress=progress, policy=policy
    )
    outcome.raise_on_failure()
    return [result.report for result in outcome.results]


def run_sweep_detailed(
    points: Iterable[Point],
    jobs: int = 1,
    cache: object = DEFAULT_CACHE,
    progress: Callable[[Point, Any, bool], None] | None = None,
    policy: RetryPolicy | None = None,
    collect_metrics: bool = False,
) -> SweepOutcome:
    """Like :func:`run_sweep`, returning per-point statuses, never raising
    for point-level failures.

    ``collect_metrics=True`` attaches a registry-only
    :class:`repro.obs.Observer` to every *simulated* point and stores its
    snapshot on :attr:`PointResult.metrics`.  Cache hits keep
    ``metrics=None`` (there was no execution to observe), and the cache
    keys themselves are untouched — observer attachment is excluded from
    the point fingerprint exactly like the watchdog budgets.

    ``cache`` also holds the inner simulations of cross-system points
    (``multichip`` shards).  It is resolved here, in the parent: the
    :data:`~repro.exp.cache.DEFAULT_CACHE` sentinel does not survive
    pickling into pool workers, a :class:`ResultCache` or ``None`` does.
    """
    policy = policy if policy is not None else RetryPolicy()
    cache = resolve_cache(cache)
    points = list(points)
    keys = [p.key for p in points]
    by_key: dict[str, PointResult] = {}
    missing: list[Point] = []
    seen_missing: set[str] = set()
    for point, key in zip(points, keys):
        if key in by_key or key in seen_missing:
            continue
        hit = lookup(key, cache)
        if hit is not None:
            by_key[key] = PointResult(point, "cached", hit)
            if progress is not None:
                progress(point, hit, True)
        else:
            seen_missing.add(key)
            missing.append(point)

    def finalize(result: PointResult) -> None:
        by_key[result.point.key] = result
        if result.ok:
            store(result.point.key, result.report, cache)
            if progress is not None:
                progress(result.point, result.report, False)

    if missing:
        if jobs <= 1 or len(missing) == 1:
            for point in missing:
                finalize(_attempt(point, policy.timeout_s, collect_metrics,
                                  cache))
        else:
            _run_parallel(missing, jobs, finalize, policy, collect_metrics,
                          cache)

    return SweepOutcome([by_key[key] for key in keys])


@dataclass
class _Pending:
    """Scheduling state of one not-yet-final point."""

    point: Point
    attempts: int = 0
    eligible_at: float = 0.0


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly stop a pool whose workers must not be waited on."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        with contextlib.suppress(Exception):
            process.terminate()
    with contextlib.suppress(Exception):
        pool.shutdown(wait=False, cancel_futures=True)


def _run_parallel(
    missing: Sequence[Point],
    jobs: int,
    finalize: Callable[[PointResult], None],
    policy: RetryPolicy,
    collect_metrics: bool = False,
    cache: ResultCache | None = None,
) -> None:
    """Fan points out to worker processes; parent persists the results.

    The scheduling loop survives worker crashes (the pool is rebuilt and
    in-flight points resubmitted — the errored ones with an attempt
    charged, the collateral ones without), enforces per-point deadlines
    by killing the pool, and falls back to serial execution when a pool
    cannot be created at all.
    """
    # Compile each distinct accelerator program (whole graph or
    # partitioned shard) once in the parent before the pool starts:
    # fork-based workers inherit the warm program memo instead of all
    # re-compiling (and re-generating datasets / re-partitioning)
    # independently.  Cross-system points need no compilation.
    from repro.eval.accelerator import program_for

    for benchmark_key, shard in dict.fromkeys(
        (p.benchmark_key, p.shard) for p in missing if p.system == ACCEL_SYSTEM
    ):
        program_for(benchmark_key, shard)

    workers = min(jobs, len(missing))
    queue: deque[_Pending] = deque(_Pending(point) for point in missing)
    inflight: dict[Future, tuple[_Pending, float | None]] = {}
    pool: ProcessPoolExecutor | None = None

    def run_serially(pending_points: Iterable[_Pending]) -> None:
        for pending in pending_points:
            result = _attempt(pending.point, policy.timeout_s,
                              collect_metrics, cache)
            result.attempts += pending.attempts
            finalize(result)

    def abandon_pool() -> None:
        nonlocal pool
        if pool is not None:
            _kill_pool(pool)
            pool = None

    def requeue(pending: _Pending, charged: bool, now: float) -> None:
        """Schedule another attempt, or finalize a crash when exhausted."""
        if not charged:
            pending.attempts = max(0, pending.attempts - 1)
            pending.eligible_at = now
            queue.append(pending)
            return
        if pending.attempts <= policy.retries:
            pending.eligible_at = now + policy.backoff(pending.attempts)
            queue.append(pending)
        else:
            finalize(
                PointResult(
                    pending.point,
                    "crash",
                    attempts=pending.attempts,
                    error="worker process died "
                          f"(retry budget of {policy.retries} exhausted)",
                )
            )

    try:
        while queue or inflight:
            now = time.monotonic()
            if pool is None and queue:
                try:
                    pool = ProcessPoolExecutor(max_workers=workers)
                except Exception as exc:
                    warnings.warn(
                        f"worker pool unavailable ({exc}); "
                        f"degrading sweep to serial execution",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    run_serially(queue)
                    queue.clear()
                    break

            # Submit every eligible point.
            deferred: list[_Pending] = []
            while queue:
                pending = queue.popleft()
                if pending.eligible_at > now:
                    deferred.append(pending)
                    continue
                pending.attempts += 1
                try:
                    future = pool.submit(
                        _resilient_worker, pending.point, policy.timeout_s,
                        collect_metrics, cache,
                    )
                except Exception as exc:
                    if inflight or pending.attempts <= policy.retries + 1:
                        # Pool refused the job; rebuild it and retry the
                        # submission without charging the point.
                        requeue(pending, charged=False, now=now)
                        abandon_pool()
                        break
                    warnings.warn(
                        f"worker pool cannot accept jobs ({exc}); "
                        f"degrading sweep to serial execution",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    pending.attempts -= 1
                    deferred.append(pending)
                    run_serially(deferred + list(queue))
                    deferred.clear()
                    queue.clear()
                    break
                deadline = (
                    None if policy.deadline_s is None
                    else now + policy.deadline_s
                )
                inflight[future] = (pending, deadline)
            queue.extend(deferred)

            if not inflight:
                if queue:
                    # Everything left is backing off; sleep to eligibility.
                    wake = min(p.eligible_at for p in queue)
                    time.sleep(max(0.0, min(wake - time.monotonic(), 5.0)))
                continue

            # Wait for a completion, the nearest deadline, or the nearest
            # backoff expiry, whichever comes first.
            horizons = [d for _, d in inflight.values() if d is not None]
            horizons += [p.eligible_at for p in queue]
            wait_s = None
            if horizons:
                wait_s = max(0.05, min(horizons) - time.monotonic())
            done, _ = wait(inflight, timeout=wait_s,
                           return_when=FIRST_COMPLETED)

            now = time.monotonic()
            pool_broken = False
            for future in done:
                pending, _deadline = inflight.pop(future)
                error = future.exception()
                if error is None:
                    payload = future.result()
                    if payload["ok"]:
                        finalize(
                            PointResult(
                                pending.point,
                                "ok",
                                decode_report(payload),
                                attempts=pending.attempts,
                                metrics=payload.get("metrics"),
                            )
                        )
                    else:
                        finalize(
                            PointResult(
                                pending.point,
                                payload["status"],
                                attempts=pending.attempts,
                                error=payload["error"],
                            )
                        )
                else:
                    # The worker process died before returning: transient.
                    pool_broken = True
                    requeue(pending, charged=True, now=now)

            # Deadline sweep: kill the pool out from under any point that
            # exceeded its wall budget; other in-flight points resubmit
            # at no charge.
            expired = [
                (future, pending)
                for future, (pending, deadline) in inflight.items()
                if deadline is not None and deadline <= now
            ]
            if expired:
                for future, pending in expired:
                    del inflight[future]
                    finalize(
                        PointResult(
                            pending.point,
                            "timeout",
                            attempts=pending.attempts,
                            error=f"exceeded the {policy.timeout_s:g} s "
                                  f"wall-clock budget (worker killed)",
                        )
                    )
                pool_broken = True

            if pool_broken:
                for future, (pending, _deadline) in list(inflight.items()):
                    requeue(pending, charged=False, now=now)
                inflight.clear()
                abandon_pool()
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def figure8_points(
    benchmarks: Sequence[str] | None = None,
    clocks: Sequence[float] = FIGURE8_CLOCKS,
    configs: Sequence[str] | None = None,
    noc_backend: str | None = None,
) -> list[Point]:
    """The Figure 8 sweep grid: configs x benchmarks x clocks.

    ``noc_backend`` pins every point to one registered NoC backend;
    ``None`` keeps each configuration's own (the ``"packet"`` default).
    The backend is part of each point's cache key, so runs on different
    backends never share entries.
    """
    from repro.models.registry import BENCHMARKS
    from repro.space import resolve_config

    keys = tuple(benchmarks or (b.key for b in BENCHMARKS))
    names = tuple(configs or (group[0] for group in FIGURE8_GROUPS))

    def resolve(name: str) -> AcceleratorConfig:
        config = resolve_config(name)
        if noc_backend is not None:
            config = config.with_noc_backend(noc_backend)
        return config

    return [
        Point(key, resolve(name), clock)
        for name in names
        for key in keys
        for clock in clocks
    ]
