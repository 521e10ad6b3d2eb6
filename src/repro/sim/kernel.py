"""Discrete-event simulation kernel.

A :class:`Simulator` owns a priority queue of :class:`Event` objects.
Events scheduled for the same timestamp fire in scheduling order, which
makes runs deterministic for a fixed workload (a property the test suite
relies on).

Fast path
---------

The kernel has two mechanically different but observably identical
execution modes:

* the **fast path** (default) — slotted events drawn from a free-list
  and a run loop specialised for the common flag combinations;
* the **reference path** (``Simulator(fastpath=False)`` or
  ``$REPRO_SIM_FASTPATH=0``) — the seed per-event loop: a fresh event
  per schedule, no recycling.

Both paths fire the same callbacks in the same order at the same
simulated timestamps (``tests/sim/test_fastpath_identity.py`` proves
reports field-for-field identical; ``tests/sim/test_event_queue_properties.py``
property-tests the ordering on adversarial schedules).

Free-list contract: only events created through :meth:`Simulator.post`
and :meth:`Simulator.post_at` — calls that never hand the event object
to the caller — are recycled.  Events returned by
:meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` are never
reused, so a held reference stays valid for :meth:`Event.cancel`
forever.
"""

from __future__ import annotations

import heapq
import os
from time import perf_counter
from typing import Any, Callable, Protocol

from repro.errors import ReproError

#: Environment variable selecting the kernel execution mode for newly
#: created simulators: any value other than ``"0"`` (or unset) enables
#: the fast path.  The differential test tier flips this to pit the two
#: implementations against each other.
FASTPATH_ENV = "REPRO_SIM_FASTPATH"

_INF = float("inf")


def default_fastpath() -> bool:
    """Fast path unless ``$REPRO_SIM_FASTPATH`` is exactly ``"0"``."""
    return os.environ.get(FASTPATH_ENV, "1") != "0"


class SimulationError(ReproError):
    """Raised for invalid simulator operations (e.g. scheduling in the past).

    Part of the :mod:`repro.exp.errors` taxonomy: a bit-deterministic
    simulator fails the same way every time, so the whole family is
    ``status="diverged"`` and never retryable.
    """

    status = "diverged"
    retryable = False


class SupportsWatchdog(Protocol):
    """Budget checker accepted by :meth:`Simulator.run`."""

    def before_event(self, sim: "Simulator", event: "Event") -> None: ...


class SupportsProfiler(Protocol):
    """Wall-clock sampler accepted by :meth:`Simulator.run`.

    Normally a :class:`repro.obs.profiler.KernelProfiler`.  The hooks see
    *host* time only — attaching a profiler can never change simulated
    timestamps, and when none is attached the run loop pays one
    ``is not None`` check up front and nothing per event.
    """

    def after_event(
        self, event: "Event", wall_s: float, queue_depth: int
    ) -> None: ...

    def add_run_wall(self, wall_s: float) -> None: ...


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
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
        self._recycle = False

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when it is popped.

        Only meaningful for *pending* events.  Cancelling an event after
        it fired was always a silent no-op; under the fast path's
        free-list it stays one for events obtained from
        :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`
        (those are never recycled, exactly so a stale ``cancel`` cannot
        hit an unrelated reused event).
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

    ``fastpath`` selects the execution mode (see the module docstring);
    ``None`` reads ``$REPRO_SIM_FASTPATH``.
    """

    def __init__(self, fastpath: bool | None = None) -> None:
        self._queue: list[Event] = []
        self._now = 0.0
        self._seq = 0
        self._events_fired = 0
        self._running = False
        self.fastpath = default_fastpath() if fastpath is None else fastpath
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
        the kernel pops (and skips) them, so this counts them too; use
        :meth:`pending_active` to exclude them.
        """
        return len(self._queue)

    def pending_active(self) -> int:
        """Number of queued events that will actually fire."""
        return sum(1 for event in self._queue if not event.cancelled)

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
        object and may recycle it after dispatch.  Hot callers (the
        runtime engine, module-internal continuations) use this to kill
        per-event allocation; anything that might need to cancel must use
        :meth:`schedule_at`.
        """
        now = self._now
        if time < now:
            raise SimulationError(
                f"cannot schedule at {time} ns; current time is {now} ns"
            )
        free = self._free
        if self.fastpath and free:
            event = free.pop()
            event.time = time
            event.seq = self._seq
            event.callback = callback
            event.args = args
        else:
            event = Event(time, self._seq, callback, args)
            # Reference mode allocates a fresh, never-recycled event per
            # post, exactly like the seed loop.
            event._recycle = self.fastpath
        self._seq += 1
        heapq.heappush(self._queue, event)

    def _recycle(self, event: Event) -> None:
        """Reset a fired recyclable event and return it to the free-list.

        Clearing ``callback``/``args`` both prevents state leaking into
        the next reuse and drops references so arguments are collectable.
        """
        event.callback = _UNSET
        event.args = ()
        event.cancelled = False
        self._free.append(event)

    # -- run loops ----------------------------------------------------------

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        watchdog: "SupportsWatchdog | None" = None,
        profiler: "SupportsProfiler | None" = None,
    ) -> float:
        """Run events until the queue drains, ``until`` ns, or ``max_events``.

        ``until`` and ``max_events`` are cooperative stop conditions (the
        run returns quietly); ``watchdog`` — any object with a
        ``before_event(sim, event)`` method, normally a
        :class:`repro.sim.watchdog.Watchdog` — enforces hard budgets by
        raising on a trip, leaving the offending event queued so the
        failure can be diagnosed.  ``profiler`` — normally a
        :class:`repro.obs.profiler.KernelProfiler` — samples handler
        wall-clock time and queue depth to show where the *Python
        simulator itself* spends time; it observes host time only and
        cannot perturb simulated results.

        Returns the simulated time when the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        run_start = perf_counter() if profiler is not None else 0.0
        try:
            if (
                self.fastpath
                and profiler is None
                and until is None
                and max_events is None
            ):
                self._run_fast(watchdog)
            else:
                self._run_general(until, max_events, watchdog, profiler)
        finally:
            self._running = False
            if profiler is not None:
                profiler.add_run_wall(perf_counter() - run_start)
        return self._now

    def _run_fast(self, watchdog: "SupportsWatchdog | None") -> None:
        """Tight dispatch loop for the dominant flag combination.

        No ``until``/``max_events`` bookkeeping, hoisted locals, and the
        free-list fed inline.  The watchdog (when present) sees exactly
        the per-event calls the reference loop makes.
        """
        queue = self._queue
        pop = heapq.heappop
        free = self._free
        fired = 0
        try:
            if watchdog is None:
                while queue:
                    event = pop(queue)
                    if event.cancelled:
                        if event._recycle:
                            self._recycle(event)
                        continue
                    self._now = event.time
                    callback = event.callback
                    args = event.args
                    if event._recycle:
                        event.callback = _UNSET
                        event.args = ()
                        event.cancelled = False
                        free.append(event)
                    callback(*args)
                    fired += 1
                return
            before_event = watchdog.before_event
            while queue:
                event = queue[0]
                if event.cancelled:
                    self._drop_cancelled()
                    continue
                before_event(self, event)
                pop(queue)
                self._now = event.time
                callback = event.callback
                args = event.args
                if event._recycle:
                    event.callback = _UNSET
                    event.args = ()
                    event.cancelled = False
                    free.append(event)
                callback(*args)
                fired += 1
        finally:
            self._events_fired += fired

    def _run_general(
        self,
        until: float | None,
        max_events: int | None,
        watchdog: "SupportsWatchdog | None",
        profiler: "SupportsProfiler | None",
    ) -> None:
        """Reference-shaped loop covering every flag combination.

        With ``fastpath=False`` this *is* the seed event loop (nothing is
        recycled), which is what the differential identity tier runs
        against.
        """
        queue = self._queue
        stop_at = _INF if until is None else until
        limit = max_events
        fired = 0
        try:
            while queue:
                event = queue[0]
                if event.time > stop_at:
                    self._now = stop_at
                    return
                if event.cancelled:
                    self._drop_cancelled()
                    continue
                if watchdog is not None:
                    watchdog.before_event(self, event)
                heapq.heappop(queue)
                self._now = event.time
                callback = event.callback
                args = event.args
                if profiler is None:
                    if event._recycle:
                        self._recycle(event)
                    callback(*args)
                else:
                    handler_start = perf_counter()
                    callback(*args)
                    profiler.after_event(
                        event, perf_counter() - handler_start, len(queue)
                    )
                    # Recycled only once the profiler has read its
                    # callback, so a post made by the handler cannot
                    # reuse the event and take the attribution.
                    if event._recycle:
                        self._recycle(event)
                fired += 1
                if limit is not None and fired >= limit:
                    return
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._events_fired += fired

    def _drop_cancelled(self) -> None:
        """Pop one cancelled event off the heap (the single drain path).

        Every loop — fast, general, :meth:`step` — discards cancelled
        events through this helper, so a cancel issued at the current
        timestamp is honoured identically everywhere: the flag is checked
        on the queue head *before* any dispatch or watchdog accounting.
        """
        event = heapq.heappop(self._queue)
        if event._recycle:
            self._recycle(event)

    def step(self) -> bool:
        """Execute the single next non-cancelled event.

        Returns True if an event fired, False if the queue was empty.
        """
        queue = self._queue
        while queue:
            if queue[0].cancelled:
                self._drop_cancelled()
                continue
            event = heapq.heappop(queue)
            self._now = event.time
            callback = event.callback
            args = event.args
            if event._recycle:
                self._recycle(event)
            callback(*args)
            self._events_fired += 1
            return True
        return False


def _unset_callback(*_args: Any) -> None:  # pragma: no cover - guard only
    raise SimulationError("a recycled event fired without being rescheduled")


#: Placeholder callback installed on free-listed events so a kernel bug
#: (dispatching a recycled-but-unscheduled event) fails loudly instead of
#: silently re-running a stale handler.
_UNSET: Callable[..., None] = _unset_callback
