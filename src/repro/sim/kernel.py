"""Discrete-event simulation kernel.

A :class:`Simulator` owns a priority queue of :class:`Event` objects.
Events scheduled for the same timestamp fire in scheduling order, which
makes runs deterministic for a fixed workload (a property the test suite
relies on).

One loop
--------

:meth:`Simulator.run` is the only dispatch loop.  It checks the watchdog
budgets (:class:`repro.sim.watchdog.WatchdogConfig`) as local variables,
recycles fire-and-forget events through a free-list, and is the loop the
kernel profiler samples from its own thread — the loop makes no Python
call per event besides the handler.  ``tests/golden_digests.json`` pins
the reports it produces; ``tests/sim/test_event_queue_properties.py``
property-tests its ordering on adversarial schedules.

Free-list contract: only events created through :meth:`Simulator.post`
and :meth:`Simulator.post_at` — calls that never hand the event object
to the caller — are recycled.  Events returned by
:meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` are never
reused, so a held reference stays valid for :meth:`Event.cancel`
forever.
"""

from __future__ import annotations

import heapq
import sys
from time import monotonic
from types import FrameType
from typing import TYPE_CHECKING, Any, Callable, Protocol

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - repro.sim.watchdog imports this module
    from repro.sim.watchdog import WatchdogConfig, WatchdogTrip

_INF = float("inf")


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


class Event:
    """A single scheduled callback.

    Events order by ``(time, seq)``; ``seq`` is a monotonically increasing
    tie-breaker assigned by the simulator so same-time events fire in the
    order they were scheduled.  ``__slots__`` plus the hand-written
    ``__lt__`` keep heap maintenance cheap — the comparison is the single
    hottest operation of a simulation (millions of calls per run).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_recycle")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        recycle: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._recycle = recycle

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when it is popped.

        Only meaningful for *pending* events.  Cancelling an event after
        it fired is a silent no-op: events obtained from
        :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` are
        never recycled, exactly so a stale ``cancel`` cannot hit an
        unrelated reused event.
        """
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return (
            f"Event(t={self.time:g}, seq={self.seq}, "
            f"{describe_callback(self.callback)}{state})"
        )


class Simulator:
    """Event queue and simulated clock.

    Time is in nanoseconds.  Typical use::

        sim = Simulator()
        sim.schedule(10.0, handler, arg1, arg2)   # fire 10 ns from now
        sim.run()
    """

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._now = 0.0
        self._seq = 0
        self._events_fired = 0
        self._running = False
        # Free-list of recyclable events (post/post_at only).
        self._free: list[Event] = []

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
        """Number of events still in the queue (including cancelled ones).

        Cancelled events stay queued until their timestamp is reached and
        the kernel pops (and skips) them, so this counts them too.
        """
        return len(self._queue)

    def pending_by_owner(self) -> dict[str, int]:
        """Non-cancelled queued events grouped by owning component.

        Callbacks that are bound methods of a named component (anything
        with a ``name`` attribute, e.g. a :class:`~repro.sim.module.Module`)
        group under ``<name>.<method>``; everything else groups under the
        callback's qualified name.  This is the kernel-side half of a
        watchdog diagnosis: when a run is aborted, it names who was still
        waiting for events.
        """
        counts: dict[str, int] = {}
        for event in self._queue:
            if event.cancelled:
                continue
            owner = describe_callback(event.callback)
            counts[owner] = counts.get(owner, 0) + 1
        return counts

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire at absolute time ``time`` ns.

        The returned :class:`Event` stays valid (for :meth:`Event.cancel`)
        indefinitely — events created here are never recycled.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} ns; current time is {self._now} ns"
            )
        event = Event(time, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, event recyclable."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self.post_at(self._now + delay, callback, *args)

    def post_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at` feeding the event free-list.

        Returns nothing, so the kernel is the only holder of the event
        object and may recycle it after dispatch (it can never be
        cancelled).  Hot callers (the runtime engine, module-internal
        continuations) use this to kill per-event allocation; anything
        that might need to cancel must use :meth:`schedule_at`.
        """
        now = self._now
        if time < now:
            raise SimulationError(
                f"cannot schedule at {time} ns; current time is {now} ns"
            )
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.seq = self._seq
            event.callback = callback
            event.args = args
        else:
            event = Event(time, self._seq, callback, args, recycle=True)
        self._seq += 1
        heapq.heappush(self._queue, event)

    # -- the run loop -------------------------------------------------------

    def run(
        self,
        watchdog: "WatchdogConfig | None" = None,
        profiler: SupportsProfiler | None = None,
    ) -> float:
        """Run events until the queue drains; returns the simulated time.

        ``watchdog`` bounds the run: before each non-cancelled event the
        loop checks the simulated-time, event-count, stall and wall-clock
        budgets, in that order, and the first one exceeded raises
        :class:`repro.sim.watchdog.WatchdogTrip` with the offending event
        still queued, so the failure can be diagnosed.  ``None`` (or a
        ``None`` budget) runs unbounded; the wall clock is read per event
        only while ``max_wall_s`` is set.  ``profiler`` (see
        :class:`SupportsProfiler`) samples this loop from its own thread.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        max_time_ns = max_events = stall_events = _INF
        max_wall_s = None
        if watchdog is not None:
            if watchdog.max_time_ms is not None:
                max_time_ns = watchdog.max_time_ms * 1e6
            if watchdog.max_events is not None:
                max_events = watchdog.max_events
            if watchdog.stall_events is not None:
                stall_events = watchdog.stall_events
            max_wall_s = watchdog.max_wall_s
        queue = self._queue
        pop = heapq.heappop
        free = self._free
        fired = 0
        stall_run = 0
        last_time = -_INF
        if profiler is not None:
            profiler.start(self, sys._getframe())
        self._running = True
        wall_start = monotonic()
        try:
            while queue:
                event = pop(queue)
                if event.cancelled:
                    continue
                time = event.time
                if time > max_time_ns:
                    raise self._trip(watchdog, "max_time", event, fired)
                if fired >= max_events:
                    raise self._trip(watchdog, "max_events", event, fired)
                if time > last_time:
                    last_time = time
                    stall_run = 0
                else:
                    stall_run += 1
                    if stall_run >= stall_events:
                        raise self._trip(watchdog, "stall", event, fired)
                if max_wall_s is not None and monotonic() - wall_start > max_wall_s:
                    raise self._trip(watchdog, "max_wall", event, fired)
                self._now = time
                callback = event.callback
                args = event.args
                if event._recycle:
                    event.callback = _UNSET
                    event.args = ()
                    free.append(event)
                callback(*args)
                fired += 1
        finally:
            self._events_fired += fired
            self._running = False
            if profiler is not None:
                profiler.stop()
        return self._now

    def _trip(
        self, watchdog: "WatchdogConfig", reason: str, event: Event,
        fired: int,
    ) -> "WatchdogTrip":
        """Requeue the offending event and build the budget's exception."""
        heapq.heappush(self._queue, event)
        return watchdog.trip(reason, self, event, fired)


def _unset_callback(*_args: Any) -> None:  # pragma: no cover - guard only
    raise SimulationError("a recycled event fired without being rescheduled")


#: Placeholder callback installed on free-listed events so a kernel bug
#: (dispatching a recycled-but-unscheduled event) fails loudly instead of
#: silently re-running a stale handler.
_UNSET: Callable[..., None] = _unset_callback
