"""The serving loop: a deadline-aware discrete-event batch scheduler.

One :func:`simulate_serving` call replays a request trace against ``N``
simulated accelerator instances.  Each instance serves a dispatched
batch in ``DISPATCH_OVERHEAD_MS + sum(per-request service time)`` — the
service times being the cached single-run latencies of
:class:`~repro.serve.cluster.ServiceTimes` — so the loop advances in
microseconds of host time per request while remaining faithful to the
expensive per-workload simulations underneath.

Robustness machinery, in the order a request meets it:

1. **Admission control** — an arrival finding the queue at its bound is
   *shed* immediately and never retried (shedding exists so overload
   does not amplify).
2. **Queueing + batching** — admitted requests wait FIFO; a free
   instance takes up to ``max_batch`` requests per dispatch.
3. **Timeout / retry with backoff** — a request that waited past
   ``timeout_ms`` when its dispatch finally comes is not serviced;
   it re-enters the queue after ``RETRY_BACKOFF_MS`` until its attempt
   budget is spent, then fails as ``request-timeout``.
4. **Fault injection + failover** — a ``crash`` fault drops the
   victim's in-flight batch; the health checker notices after
   ``HEALTH_CHECK_MS`` and requeues the batch onto the survivors
   (``instance-down``, retryable).  A ``degrade`` fault multiplies the
   victim's service times for its window.  If every instance is down
   with no recovery scheduled, queued and future requests fail fast
   instead of hanging.
5. **Graceful degradation** — when the queue backlog reaches
   ``degrade_queue``, dispatches switch to the approximate service
   times (accelerator: the ``analytical`` NoC), and every
   request so served is counted and flagged in the report.

Determinism: the event queue is ordered by ``(time, sequence)`` with
sequence numbers assigned at scheduling time, all randomness lives in
the (seeded) arrival trace, and no host clock is ever read — the same
inputs produce the same report bit for bit, on any machine, at any
``--jobs`` setting (``tests/serve/test_determinism.py``).

Accounting invariant, asserted before returning: every generated
request is counted exactly once — ``generated == completed + shed +
failed``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.exp.errors import ServeError
from repro.serve.arrivals import ArrivalSpec, Request
from repro.serve.cluster import InstanceFault, ServiceTimes
from repro.serve.report import InstanceSummary, ServeReport
from repro.sim.stats import BusyTracker, StatSet

#: Event-kind dispatch priorities at equal timestamps: state changes
#: (faults, recoveries) land before detections, detections before
#: completions, completions before new arrivals — so e.g. a batch
#: finishing exactly when an arrival lands frees the instance first.
_PRI_FAULT = 0
_PRI_RECOVER = 1
_PRI_DETECT = 2
_PRI_REQUEUE = 3
_PRI_FINISH = 4
_PRI_ARRIVE = 5

#: Fixed cost of dispatching one batch to an instance (ms).
DISPATCH_OVERHEAD_MS = 0.05

#: Wait before a timed-out request re-enters the queue (ms).
RETRY_BACKOFF_MS = 1.0

#: Time the health checker takes to notice a crashed instance (ms).
HEALTH_CHECK_MS = 5.0


@dataclass(frozen=True)
class ServePolicy:
    """The scheduler's knobs: SLO, batching, shedding, retry, failover.

    ``degrade_queue`` defaults to half the admission bound — degradation
    engages before shedding does.  ``timeout_ms=None`` disables request
    timeouts (requests wait as long as the queue holds them).
    """

    slo_ms: float = 50.0
    queue_bound: int = 64
    degrade_queue: int | None = None
    max_batch: int = 8
    timeout_ms: float | None = None
    max_retries: int = 1

    def __post_init__(self) -> None:
        if self.slo_ms <= 0:
            raise ValueError("slo_ms must be positive")
        if self.queue_bound < 1:
            raise ValueError("queue_bound must be at least 1")
        if self.degrade_queue is not None and self.degrade_queue < 1:
            raise ValueError("degrade_queue must be at least 1 or None")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.timeout_ms is not None and self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive or None")
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")

    @property
    def degrade_bound(self) -> int:
        """The backlog at which approximate-mode dispatch engages."""
        if self.degrade_queue is not None:
            return self.degrade_queue
        return max(1, self.queue_bound // 2)

    def fingerprint(self) -> dict[str, object]:
        return {
            "slo_ms": self.slo_ms,
            "queue_bound": self.queue_bound,
            "degrade_queue": self.degrade_bound,
            "max_batch": self.max_batch,
            "dispatch_overhead_ms": DISPATCH_OVERHEAD_MS,
            "timeout_ms": self.timeout_ms,
            "max_retries": self.max_retries,
            "retry_backoff_ms": RETRY_BACKOFF_MS,
            "health_check_ms": HEALTH_CHECK_MS,
        }


@dataclass
class _Job:
    """One admitted request's scheduling state across attempts."""

    request: Request
    attempts: int = 0


@dataclass
class _Instance:
    """Mutable state of one simulated serving instance."""

    index: int
    up: bool = True
    slow_factor: float = 1.0
    batch_id: int = 0       # increments per dispatch; stale-finish guard
    batch: list[_Job] = field(default_factory=list)
    batch_approx: bool = False
    busy: bool = False
    stats: StatSet = field(default_factory=StatSet)
    tracker: BusyTracker = field(default_factory=BusyTracker)


class _EventQueue:
    """A (time, priority, seq)-ordered heap; seq makes ties total."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, str, object]] = []
        self._seq = 0

    def push(self, at_ms: float, priority: int, kind: str,
             payload: object = None) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at_ms, priority, self._seq, kind, payload))

    def pop(self) -> tuple[float, str, object]:
        at_ms, _priority, _seq, kind, payload = heapq.heappop(self._heap)
        return at_ms, kind, payload

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


def simulate_serving(
    requests: Sequence[Request],
    table: ServiceTimes,
    instances: int = 2,
    policy: ServePolicy | None = None,
    faults: Sequence[InstanceFault] = (),
    arrival: ArrivalSpec | None = None,
    registry: object | None = None,
) -> ServeReport:
    """Replay ``requests`` against a cluster of ``instances`` instances.

    ``arrival`` is carried into the report's fingerprint for replay
    documentation (the trace itself is what is simulated).  ``registry``
    — a :class:`repro.obs.MetricsRegistry` — receives every instance's
    counters and busy ledger under ``serve/instance.N`` plus the
    scheduler's own counters under ``serve/scheduler``, giving serving
    runs the same metrics surface as simulated ones.

    Returns a :class:`~repro.serve.report.ServeReport`; raises
    :class:`~repro.exp.errors.ServeError` only for a broken scheduler
    (event-budget exhaustion), never for request-level failures — those
    are accounted, not raised.
    """
    if instances < 1:
        raise ValueError("need at least one serving instance")
    policy = policy or ServePolicy()
    sim = _ServingSimulation(requests, table, instances, policy, faults)
    if registry is not None:
        sim.register_metrics(registry)
    sim.run()
    return sim.report(arrival)


class _ServingSimulation:
    """One serving replay's full mutable state and event handlers."""

    def __init__(
        self,
        requests: Sequence[Request],
        table: ServiceTimes,
        instances: int,
        policy: ServePolicy,
        faults: Sequence[InstanceFault],
    ) -> None:
        self.requests = list(requests)
        self.table = table
        self.policy = policy
        self.cluster = [_Instance(i) for i in range(instances)]
        self.faults = [
            InstanceFault(
                kind=f.kind, instance=f.instance % instances,
                at_ms=f.at_ms, duration_ms=f.duration_ms, factor=f.factor,
            )
            for f in faults
        ]
        self.events = _EventQueue()
        self.queue: list[_Job] = []
        self.sched_stats = StatSet()
        self.pending_recoveries = 0

        # Accounting (the report's conservation law).
        self.completed: list[tuple[Request, float, bool]] = []  # (req, latency, approx)
        self.shed: list[Request] = []
        self.failed: list[tuple[Request, str]] = []  # (req, status)
        self.retries = 0
        self.horizon_ms = 0.0
        self.events_processed = 0

        for request in self.requests:
            self.events.push(request.arrival_ms, _PRI_ARRIVE, "arrive",
                             request)
        for fault in self.faults:
            self.events.push(fault.at_ms, _PRI_FAULT, "fault", fault)
            if not fault.permanent:
                self.events.push(fault.at_ms + fault.duration_ms,
                                 _PRI_RECOVER, "recover", fault)
                self.pending_recoveries += 1

        #: Hard bound proving the loop cannot hang: every request can
        #: cause at most (1 arrival + attempts * (requeue + dispatch
        #: membership + finish)) events, faults a handful each.
        self.event_budget = (
            len(self.requests) * (4 + 3 * policy.max_retries)
            + 8 * len(self.faults) + 64
        )

    # -- metrics ----------------------------------------------------------

    def register_metrics(self, registry: object) -> None:
        """Expose per-instance counters/ledgers and scheduler counters
        through a :class:`repro.obs.MetricsRegistry`."""
        register = getattr(registry, "register")
        for instance in self.cluster:
            register(f"serve/instance.{instance.index}",
                     stats=instance.stats, tracker=instance.tracker)
        register("serve/scheduler", stats=self.sched_stats)

    # -- helpers ----------------------------------------------------------

    @property
    def up_count(self) -> int:
        return sum(1 for inst in self.cluster if inst.up)

    def cluster_dead(self) -> bool:
        """No live instance and none scheduled to recover."""
        return self.up_count == 0 and self.pending_recoveries == 0

    def idle_instances(self) -> Iterator[_Instance]:
        for instance in self.cluster:
            if instance.up and not instance.busy:
                yield instance

    def fail(self, job: _Job, status: str, now: float) -> None:
        self.failed.append((job.request, status))
        self.sched_stats.add(f"failed.{status}")
        self.horizon_ms = max(self.horizon_ms, now)

    def requeue(self, job: _Job, status: str, now: float) -> None:
        """Retry ``job`` after backoff, or fail it when the budget is
        spent.  ``status`` names the retryable failure being recovered
        from (``request-timeout`` or ``instance-down``)."""
        if job.attempts > self.policy.max_retries:
            self.fail(job, status, now)
            return
        self.retries += 1
        self.sched_stats.add("retries")
        self.events.push(now + RETRY_BACKOFF_MS,
                         _PRI_REQUEUE, "requeue", job)

    # -- event handlers ----------------------------------------------------

    def run(self) -> None:
        while self.events:
            self.events_processed += 1
            if self.events_processed > self.event_budget:
                raise ServeError(
                    f"serving simulation exceeded its event budget "
                    f"({self.event_budget}); the scheduler is looping",
                    at_ms=self.horizon_ms,
                )
            now, kind, payload = self.events.pop()
            self.horizon_ms = max(self.horizon_ms, now)
            if kind == "arrive":
                self.on_arrive(payload, now)
            elif kind == "finish":
                self.on_finish(payload, now)
            elif kind == "requeue":
                self.on_requeue(payload, now)
            elif kind == "fault":
                self.on_fault(payload, now)
            elif kind == "recover":
                self.on_recover(payload, now)
            else:  # "detect"
                self.on_detect(payload, now)
        balance = len(self.completed) + len(self.shed) + len(self.failed)
        if balance != len(self.requests):
            raise ServeError(
                f"lost-request accounting: generated {len(self.requests)} "
                f"!= completed {len(self.completed)} + shed "
                f"{len(self.shed)} + failed {len(self.failed)}"
            )

    def on_arrive(self, request: Request, now: float) -> None:
        self.sched_stats.add("arrivals")
        if self.cluster_dead():
            # Nothing will ever serve this request; fail fast instead of
            # queueing it forever.
            self.fail(_Job(request, attempts=1), "instance-down", now)
            return
        if len(self.queue) >= self.policy.queue_bound:
            self.shed.append(request)
            self.sched_stats.add("shed")
            return
        self.queue.append(_Job(request))
        self.dispatch(now)

    def on_requeue(self, job: _Job, now: float) -> None:
        if self.cluster_dead():
            self.fail(job, "instance-down", now)
            return
        # Retries bypass admission control: the request is already
        # admitted and shedding it now would double-count it.
        self.queue.append(job)
        self.dispatch(now)

    def on_finish(self, payload: object, now: float) -> None:
        instance_index, batch_id = payload  # type: ignore[misc]
        instance = self.cluster[instance_index]
        if not instance.up or instance.batch_id != batch_id:
            return  # stale completion of a crashed instance's batch
        approx = instance.batch_approx
        for job in instance.batch:
            latency = now - job.request.arrival_ms
            self.completed.append((job.request, latency, approx))
        instance.stats.add("completed", len(instance.batch))
        instance.batch = []
        instance.busy = False
        self.dispatch(now)

    def on_fault(self, fault: InstanceFault, now: float) -> None:
        instance = self.cluster[fault.instance]
        instance.stats.add("injected_faults")
        if fault.kind == "degrade":
            instance.slow_factor = fault.factor
            return
        if not instance.up:
            # Crashing an already-down instance changes nothing, but a
            # scheduled recovery for the earlier crash still stands.
            return
        instance.up = False
        instance.busy = False
        instance.batch_id += 1  # invalidate the in-flight finish event
        if instance.batch:
            # The health checker discovers the loss one interval later
            # and fails the batch over to the survivors.
            self.events.push(now + HEALTH_CHECK_MS,
                             _PRI_DETECT, "detect", list(instance.batch))
            instance.batch = []
        if self.cluster_dead():
            self.drain_queue(now)

    def on_recover(self, fault: InstanceFault, now: float) -> None:
        self.pending_recoveries -= 1
        instance = self.cluster[fault.instance]
        if fault.kind == "degrade":
            instance.slow_factor = 1.0
            return
        instance.up = True
        instance.busy = False
        instance.stats.add("recoveries")
        self.dispatch(now)

    def on_detect(self, jobs: object, now: float) -> None:
        self.sched_stats.add("failovers")
        for job in jobs:  # type: ignore[union-attr]
            self.requeue(job, "instance-down", now)

    def drain_queue(self, now: float) -> None:
        """Every instance is down for good: fail all queued work."""
        for job in self.queue:
            self.fail(job, "instance-down", now)
        self.queue.clear()

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, now: float) -> None:
        """Hand queued requests to idle instances, batch by batch."""
        for instance in self.idle_instances():
            if not self.queue:
                return
            batch = self.take_batch(now)
            if not batch:
                return
            approximate = (
                self.table.has_approximate
                and len(self.queue) + len(batch) > self.policy.degrade_bound
            )
            service = DISPATCH_OVERHEAD_MS
            for job in batch:
                service += (
                    self.table.service_ms(job.request.benchmark_key,
                                          approximate)
                    * instance.slow_factor
                )
            instance.busy = True
            instance.batch = batch
            instance.batch_id += 1
            instance.stats.add("batches")
            instance.stats.add("dispatched", len(batch))
            if approximate:
                instance.stats.add("approx_batches")
            instance.batch_approx = approximate
            instance.tracker.occupy(now, service)
            self.events.push(now + service, _PRI_FINISH, "finish",
                             (instance.index, instance.batch_id))

    def take_batch(self, now: float) -> list[_Job]:
        """Up to ``max_batch`` live requests off the queue head; expired
        ones route into timeout/retry instead of wasting service time."""
        batch: list[_Job] = []
        timeout = self.policy.timeout_ms
        while self.queue and len(batch) < self.policy.max_batch:
            job = self.queue.pop(0)
            if timeout is not None and now - job.request.arrival_ms > timeout:
                job.attempts += 1
                self.requeue(job, "request-timeout", now)
                continue
            job.attempts += 1
            batch.append(job)
        return batch

    # -- report ------------------------------------------------------------

    def report(self, arrival: ArrivalSpec | None) -> ServeReport:
        latencies = [latency for _req, latency, _approx in self.completed]
        horizon = max(self.horizon_ms, 1e-9)
        per_instance = [
            InstanceSummary(
                index=inst.index,
                batches=int(inst.stats.get("batches")),
                completed=int(inst.stats.get("completed")),
                approx_batches=int(inst.stats.get("approx_batches")),
                injected_faults=int(inst.stats.get("injected_faults")),
                busy_ms=inst.tracker.busy_time,
                utilization=min(1.0, inst.tracker.busy_time / horizon),
                up=inst.up,
            )
            for inst in self.cluster
        ]
        within_slo = sum(
            1 for latency in latencies if latency <= self.policy.slo_ms
        )
        failed_by_status: dict[str, int] = {}
        for _request, status in self.failed:
            failed_by_status[status] = failed_by_status.get(status, 0) + 1
        return ServeReport(
            system=self.table.system,
            benchmarks=tuple(sorted({r.benchmark_key for r in self.requests}))
            or ("-",),
            instances=len(self.cluster),
            arrival=(arrival.fingerprint() if arrival is not None else None),
            policy=self.policy.fingerprint(),
            faults=[fault.fingerprint() for fault in self.faults],
            generated=len(self.requests),
            completed=len(self.completed),
            shed=len(self.shed),
            failed=len(self.failed),
            failed_by_status=failed_by_status,
            retries=self.retries,
            completed_approx=sum(
                1 for _req, _lat, approx in self.completed if approx
            ),
            approximate_backend=self.table.approximate_backend,
            latency_ms=latencies,
            slo_ms=self.policy.slo_ms,
            slo_attained=within_slo,
            duration_ms=horizon,
            events=self.events_processed,
            per_instance=per_instance,
        )


def saturation_qps(
    table: ServiceTimes,
    benchmarks: Sequence[str],
    arrival: ArrivalSpec,
    instances: int = 2,
    policy: ServePolicy | None = None,
    target_attainment: float = 0.95,
    iterations: int = 10,
) -> float:
    """The highest arrival rate sustaining the SLO at ``target_attainment``.

    Geometric bracketing then bisection over the offered rate, each
    probe a fresh deterministic serving replay at the same seed on a
    *healthy* cluster (saturation is a property of the fleet, not of a
    particular outage).  Everything is seeded, so the result is
    bit-deterministic.
    """
    policy = policy or ServePolicy()

    def attained(rate: float) -> bool:
        import dataclasses

        spec = dataclasses.replace(arrival, rate_qps=rate)
        trace = spec.generate(list(benchmarks))
        if not trace:
            return True
        report = simulate_serving(trace, table, instances, policy,
                                  arrival=spec)
        return report.slo_attainment >= target_attainment

    # Bracket: find a failing upper rate by doubling from the offered one.
    low = 0.0
    high = max(arrival.rate_qps, 1.0)
    for _ in range(iterations):
        if not attained(high):
            break
        low = high
        high *= 2.0
    else:
        return low  # never saturated within the doubling budget
    # Bisect between the last attained rate (0 when even the offered
    # rate fails) and the first failing one.
    for _ in range(iterations):
        mid = (low + high) / 2.0
        if attained(mid):
            low = mid
        else:
            high = mid
    return low
