"""Fault-tolerant parallel sweep execution over the persistent result cache.

:func:`run_sweep` takes a list of :class:`Point`s — (benchmark, config,
clock) operating points — answers as many as it can from the caching
layers (per-process memo, then the on-disk
:class:`~repro.exp.cache.ResultCache`), and hands the misses to worker
processes it forks and owns.  Simulation is bit-deterministic, so the
parallel path returns results identical to the serial one
(``tests/exp/test_determinism.py`` asserts this field by field); workers
hand reports back in the one encoding the persistent store writes
(:func:`repro.exp.cache.encode_report`).

The runner is *resilient* (``tests/exp/test_resilience.py``):

* every point runs under a :class:`RetryPolicy` — one wall-clock
  deadline per attempt, enforced by killing that attempt's worker
  alone, and bounded retries of the point whose worker died; every
  other point still completes;
* a worker that cannot start degrades the sweep to inline execution;
* :func:`run_sweep_detailed` returns a :class:`SweepOutcome` carrying
  per-point status (ok / cached / timeout / crash / diverged / error),
  classified by :mod:`repro.exp.errors`, while the strict
  :func:`run_sweep` raises :class:`~repro.exp.errors.SweepFailed` if any
  point ends in failure.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Iterable, Sequence

from repro.accel.config import AcceleratorConfig, resolve_config
from repro.errors import ReproError
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
from repro.exp.errors import SweepFailed, classify
from repro.runtime.report import SimulationReport

#: Figure 8's (configuration, baseline system) groups, in paper order.
FIGURE8_GROUPS: tuple[tuple[str, str], ...] = (
    ("CPU iso-BW", "cpu"),
    ("GPU iso-BW", "gpu"),
    ("GPU iso-FLOPS", "gpu"),
)

#: Tile clocks swept in Figure 8 (GHz).
FIGURE8_CLOCKS: tuple[float, ...] = (1.2, 2.4)

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
    shard is an independent point flowing through the same workers,
    retry policy, and cache layers as every whole-graph point.
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

    ``timeout_s`` is the wall-clock budget of each attempt, on any
    system: the deadline starts when a worker process receives the
    point, and a worker still busy at its deadline is killed, alone,
    ending the point as ``timeout`` (so a budget runs even a serial
    sweep in a worker).  ``retries`` bounds *extra* attempts after a worker died,
    each started at once in a fresh worker.  Failures an attempt
    reports itself are deterministic and never retried.
    """

    timeout_s: float | None = None
    retries: int = 2

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive or None")
        if self.retries < 0:
            raise ValueError("retries cannot be negative")


@dataclass
class PointResult:
    """Final status of one operating point after all attempts."""

    point: Point
    status: str  # "ok" | "cached" | "timeout" | "crash" | "diverged" | "error"
    report: Any = None  # SimulationReport | SystemReport | None
    attempts: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")

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


def simulate_point(point: Point) -> SimulationReport:
    """Compile (memoized per process) and simulate one accelerator point.

    Shard points compile the shard's induced subgraph (memoized the same
    way) instead of the whole benchmark input.
    """
    from repro.eval.accelerator import program_for
    from repro.runtime.engine import simulate

    return simulate(program_for(point.benchmark_key, point.shard),
                    point.resolved_config)


def execute_point(point: Point, cache: object = DEFAULT_CACHE) -> Any:
    """Run one point on its execution system (no point caching, no
    budgets).

    Accelerator points go through :func:`simulate_point`; cross-system
    points prepare and execute on their registered
    :mod:`repro.systems` backend, whose inner simulations (``multichip``
    shards) read and store through ``cache``.
    """
    if point.system == ACCEL_SYSTEM:
        return simulate_point(point)
    backend = point.backend()
    plan = backend.prepare(point.benchmark_key)
    return backend.execute(plan, cache=cache)


def _attempt(point: Point, cache: ResultCache | None = None) -> PointResult:
    """One attempt at ``point``, classified instead of propagated.

    The single attempt body, inline or in a worker (:func:`_payload`).
    A failure maps through the shared taxonomy
    (:func:`repro.exp.errors.classify`).  ``cache`` is the sweep's
    resolved store, handed to cross-system points for their inner
    simulations.
    """
    try:
        if point.system == ACCEL_SYSTEM:
            report = simulate_point(point)
        else:
            report = execute_point(point, cache=cache)
    except Exception as exc:
        return _failed(point, exc)
    return PointResult(point, "ok", report, attempts=1)


def _failed(point: Point, exc: Exception) -> PointResult:
    """One attempt at ``point`` that raised ``exc``, with the status the
    shared taxonomy gives it (:func:`repro.exp.errors.classify`)."""
    message = (str(exc) if isinstance(exc, ReproError)
               else f"{type(exc).__name__}: {exc}")
    return PointResult(point, classify(exc), attempts=1, error=message)


def _payload(point: Point, cache: ResultCache | None = None) -> dict[str, Any]:
    """:func:`_attempt` as the plain data a worker sends home: a report
    as :func:`~repro.exp.cache.encode_report`, the entry the persistent
    cache stores, or a failure's status and message."""
    result = _attempt(point, cache)
    if not result.ok:
        return {"ok": False, "status": result.status, "error": result.error}
    return {"ok": True, **encode_report(result.report)}


def _serve(conn: Connection, cache: ResultCache | None) -> None:
    """A worker process: answer each point with its payload until the
    parent sends ``None``."""
    for point in iter(conn.recv, None):
        conn.send(_payload(point, cache))


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
    are simulated once.  ``jobs <= 1`` without a budget runs inline in
    this process; ``jobs > 1`` distributes cache misses over that many
    worker processes.  ``progress``, when given, is called as each point
    completes with ``(point, report, was_cached)``.

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
) -> SweepOutcome:
    """Like :func:`run_sweep`, returning per-point statuses, never raising
    for point-level failures.

    Misses run inline when the policy sets no budget and either
    ``jobs <= 1`` or only one point misses, else on worker processes
    (:func:`_run_workers`).  ``cache`` also holds the inner simulations
    of cross-system points (``multichip`` shards).
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
        if policy.timeout_s is None and (jobs <= 1 or len(missing) == 1):
            for point in missing:
                finalize(_attempt(point, cache))
        else:
            _run_workers(missing, jobs, finalize, policy, cache)

    return SweepOutcome([by_key[key] for key in keys])


@dataclass
class _Worker:
    """A forked worker process, the parent's end of its pipe, and the
    attempt it runs."""

    process: BaseProcess
    conn: Connection
    point: Point | None = None  # None while idle
    deadline: float = math.inf

    def stop(self, kill: bool) -> None:
        """End the process and reap it.  An idle worker is told to exit:
        closing the pipe would not do, because every worker forked after
        it holds a copy of the parent's end, so it would never see EOF."""
        if kill:
            self.process.kill()
        else:
            with contextlib.suppress(OSError):
                self.conn.send(None)
        self.process.join()
        self.conn.close()


def _start_worker(context: Any, cache: ResultCache | None) -> _Worker | None:
    """Fork one worker, or warn and give ``None`` if the OS refuses."""
    conn, child = context.Pipe()
    process = context.Process(target=_serve, args=(child, cache), daemon=True)
    try:
        process.start()
    except OSError as exc:
        conn.close()
        warnings.warn(f"cannot start a sweep worker ({exc}); running the "
                      f"remaining points serially, without budgets",
                      RuntimeWarning, stacklevel=4)
        return None
    finally:
        child.close()
    return _Worker(process, conn)


def _run_workers(
    missing: Sequence[Point],
    jobs: int,
    finalize: Callable[[PointResult], None],
    policy: RetryPolicy,
    cache: ResultCache | None,
) -> None:
    """Run ``missing`` on at most ``jobs`` forked worker processes.

    A worker still busy at its attempt's deadline is killed, alone, and
    its point ends ``timeout``; a worker that dies charges its point one
    attempt, and the point runs again while the policy allows.  Fresh
    workers replace both, and none outlives the call.  If a worker
    cannot start, the remaining points run inline, without budgets.
    """
    # Compile each distinct accelerator program (whole graph or shard)
    # here, so forked workers inherit it instead of all compiling it.  A
    # program that cannot be built fails each of its points, as the
    # attempt would have.
    from repro.eval.accelerator import program_for

    unbuilt: dict[tuple[str, Any], Exception] = {}
    for program in dict.fromkeys(
        (p.benchmark_key, p.shard) for p in missing if p.system == ACCEL_SYSTEM
    ):
        try:
            program_for(*program)
        except Exception as exc:
            unbuilt[program] = exc
    runnable = []
    for point in missing:
        exc = (unbuilt.get((point.benchmark_key, point.shard))
               if point.system == ACCEL_SYSTEM else None)
        if exc is None:
            runnable.append(point)
        else:
            finalize(_failed(point, exc))

    # Fork on every platform: workers must inherit the program memo
    # above and whatever this process patched into this module.
    context = multiprocessing.get_context("fork")
    budget = math.inf if policy.timeout_s is None else policy.timeout_s
    jobs = max(1, min(jobs, len(runnable)))
    queue = deque(runnable)
    attempts = dict.fromkeys((point.key for point in runnable), 0)
    workers: list[_Worker] = []
    serial = False

    def retire(worker: _Worker) -> None:
        worker.stop(kill=True)
        workers.remove(worker)

    def done(point: Point, status: str, report: Any = None,
             error: str | None = None) -> None:
        finalize(PointResult(point, status, report, attempts[point.key],
                             error))

    def hand_off(worker: _Worker) -> None:
        point = queue.popleft()
        try:
            worker.conn.send(point)
        except BrokenPipeError:
            # The worker died while idle; the point never started.
            queue.appendleft(point)
            retire(worker)
            return
        attempts[point.key] += 1
        worker.point = point
        worker.deadline = time.monotonic() + budget

    try:
        while True:
            for worker in [w for w in workers if w.point is None]:
                if queue:
                    hand_off(worker)
            while queue and not serial and len(workers) < jobs:
                worker = _start_worker(context, cache)
                if worker is None:
                    serial = True
                else:
                    workers.append(worker)
                    hand_off(worker)
            while serial and queue:
                result = _attempt(queue.popleft(), cache)
                result.attempts += attempts[result.point.key]
                finalize(result)

            busy = {w.conn: w for w in workers if w.point is not None}
            if not busy:  # and so nothing is queued either
                break
            left = min(w.deadline for w in busy.values()) - time.monotonic()
            timeout = None if left == math.inf else max(0.0, left)
            for conn in wait(list(busy), timeout):
                worker = busy.pop(conn)
                point = worker.point
                try:
                    payload = conn.recv()
                except (EOFError, ConnectionResetError):
                    # The worker died mid-point (a crash, an OOM kill).
                    retire(worker)
                    if attempts[point.key] <= policy.retries:
                        queue.append(point)
                    else:
                        done(point, "crash", error="worker process died "
                             f"(retry budget of {policy.retries} exhausted)")
                    continue
                worker.point = None
                if queue:
                    hand_off(worker)  # before this process stores the result
                if payload["ok"]:
                    done(point, "ok", decode_report(payload))
                else:
                    done(point, payload["status"], error=payload["error"])
            now = time.monotonic()
            for worker in busy.values():
                if worker.deadline <= now:
                    retire(worker)
                    done(worker.point, "timeout", error=f"exceeded the "
                         f"{policy.timeout_s:g} s wall-clock budget "
                         f"(worker killed)")
    finally:
        for worker in workers:
            worker.stop(kill=worker.point is not None)


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
