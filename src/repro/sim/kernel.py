"""Discrete-event simulation kernel.

A :class:`Simulator` owns a priority queue of ``(time, seq, callback,
args)`` tuples.  ``seq`` is a counter assigned at scheduling time, so it
is unique: heap comparisons run in C on ``(time, seq)`` and never reach
the callback, and events scheduled for the same timestamp fire in
scheduling order, which makes runs deterministic for a fixed workload
(a property the test suite relies on).

One loop
--------

:meth:`Simulator.post_at` is the only way to schedule an event, and
:meth:`Simulator.run` is the only dispatch loop.  It checks the watchdog
budgets (:class:`repro.sim.watchdog.WatchdogConfig`) as local variables
and is the loop the kernel profiler samples from its own thread — the
loop makes no Python call per event besides the handler.  A popped
entry is freed once its handler returns, so draining a queue allocates
nothing per event.  ``tests/golden_digests.json`` pins the reports it
produces; ``tests/sim/test_event_queue_properties.py`` property-tests
its ordering on adversarial schedules.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from types import FrameType
from typing import TYPE_CHECKING, Any, Callable, Protocol

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - repro.sim.watchdog imports this module
    from repro.sim.watchdog import WatchdogConfig, WatchdogTrip

_INF = float("inf")

#: One queued event: ``(time_ns, seq, callback, args)``.
QueueEntry = tuple[float, int, Callable[..., None], tuple[Any, ...]]


class SimulationError(ReproError):
    """Raised for invalid simulator operations (e.g. scheduling in the past).

    Part of the :mod:`repro.exp.errors` taxonomy: a bit-deterministic
    simulator fails the same way every time, so the whole family is
    ``status="diverged"`` and never retryable.
    """

    status = "diverged"
    retryable = False


class SupportsProfiler(Protocol):
    """Sampler accepted by :meth:`Simulator.run`.

    Normally a :class:`repro.obs.profiler.KernelProfiler`.  ``start`` is
    called before the dispatch loop with the frame that runs it, and
    ``stop`` after it; nothing is called per event, so a profiler sees
    *host* time only and can never change simulated timestamps.
    """

    def start(self, sim: "Simulator", loop: FrameType) -> None: ...

    def stop(self) -> None: ...


def describe_callback(callback: Callable[..., None]) -> str:
    """Human-readable owner label for a scheduled callback.

    Bound methods of named components (``callback.__self__.name``) label
    as ``<component>.<method>``; plain functions and closures fall back to
    their qualified name.
    """
    owner = getattr(callback, "__self__", None)
    name = getattr(owner, "name", None)
    if isinstance(name, str):
        return f"{name}.{callback.__name__}"
    return getattr(callback, "__qualname__", repr(callback))


class Simulator:
    """Event queue and simulated clock.

    Time is in nanoseconds.  Typical use::

        sim = Simulator()
        sim.post_at(10.0, handler, arg1, arg2)   # fire at t = 10 ns
        sim.run()
    """

    def __init__(self) -> None:
        self._queue: list[QueueEntry] = []
        self._now = 0.0
        self._seq = 0
        self._events_fired = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of events still in the queue."""
        return len(self._queue)

    def pending_by_owner(self) -> dict[str, int]:
        """Queued events grouped by owning component.

        Callbacks that are bound methods of a named component (anything
        with a ``name`` attribute, e.g. a :class:`~repro.sim.module.Module`)
        group under ``<name>.<method>``; everything else groups under the
        callback's qualified name.  This is the kernel-side half of a
        watchdog diagnosis: when a run is aborted, it names who was still
        waiting for events.
        """
        counts: dict[str, int] = {}
        for _, _, callback, _ in self._queue:
            owner = describe_callback(callback)
            counts[owner] = counts.get(owner, 0) + 1
        return counts

    def post_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to fire at absolute time ``time`` ns.

        Events for one timestamp fire in the order they were posted.  A
        time before the current one, or NaN, raises
        :class:`SimulationError`; this is the only guard on the runtime
        engine's continuation times.
        """
        if not time >= self._now:  # NaN fails the comparison too
            raise SimulationError(
                f"cannot schedule at {time} ns; current time is {self._now} ns"
            )
        heappush(self._queue, (time, self._seq, callback, args))
        self._seq += 1

    # -- the run loop -------------------------------------------------------

    def run(
        self,
        watchdog: "WatchdogConfig | None" = None,
        profiler: SupportsProfiler | None = None,
    ) -> float:
        """Run events until the queue drains; returns the simulated time.

        ``watchdog`` bounds the run: before each event the loop checks the
        simulated-time, event-count and stall budgets, in that order, and
        the first one exceeded raises
        :class:`repro.sim.watchdog.WatchdogTrip` with the offending event
        still queued, so the failure can be diagnosed.  ``None`` (or a
        ``None`` budget) runs unbounded.  ``profiler`` (see
        :class:`SupportsProfiler`) samples this loop from its own thread.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        max_time_ns = max_events = stall_events = _INF
        if watchdog is not None:
            if watchdog.max_time_ms is not None:
                max_time_ns = watchdog.max_time_ms * 1e6
            if watchdog.max_events is not None:
                max_events = watchdog.max_events
            if watchdog.stall_events is not None:
                stall_events = watchdog.stall_events
        queue = self._queue
        pop = heappop
        fired = 0
        stall_run = 0
        last_time = -_INF
        if profiler is not None:
            profiler.start(self, sys._getframe())
        self._running = True
        try:
            while queue:
                entry = pop(queue)
                time, _, callback, args = entry
                if time > max_time_ns:
                    raise self._trip(watchdog, "max_time", entry, fired)
                if fired >= max_events:
                    raise self._trip(watchdog, "max_events", entry, fired)
                if time > last_time:
                    last_time = time
                    stall_run = 0
                else:
                    stall_run += 1
                    if stall_run >= stall_events:
                        raise self._trip(watchdog, "stall", entry, fired)
                self._now = time
                callback(*args)
                fired += 1
        finally:
            self._events_fired += fired
            self._running = False
            if profiler is not None:
                profiler.stop()
        return self._now

    def _trip(
        self, watchdog: "WatchdogConfig", reason: str, entry: QueueEntry,
        fired: int,
    ) -> "WatchdogTrip":
        """Requeue the offending entry and build the budget's exception."""
        heappush(self._queue, entry)
        return watchdog.trip(reason, self, entry, fired)
