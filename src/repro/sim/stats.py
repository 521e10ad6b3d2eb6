"""Statistics helpers shared by simulation modules.

Two pieces:

* :class:`StatSet` — a named bag of counters, accumulated or derived
  from a unit's integer tallies when read.
* :class:`BusyTracker` — accumulates busy time so modules can report
  utilization (e.g. the DNA utilization plotted in the paper's Figure 10).
"""

from __future__ import annotations

from typing import Callable


class StatSet:
    """A named collection of counters.

    Two sources feed it.  :meth:`add` accumulates the rare counters
    (stalls, queue switches, injected faults) as they happen.  Hot-path
    activity is never counted here: a unit keeps plain integer tallies
    and hands ``derived``, a function returning the counters it derives
    from them, which every read (:meth:`get`, :meth:`as_dict`, ``in``)
    evaluates afresh.  A read mutates nothing, so a snapshot taken
    mid-run stays exact as the run goes on.
    """

    __slots__ = ("_counters", "_derived")

    def __init__(
        self, derived: Callable[[], dict[str, float]] | None = None
    ) -> None:
        self._counters: dict[str, float] = {}
        self._derived = derived

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        counters = self._counters
        counters[name] = counters.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        """Current value of counter ``name`` (0.0 if never incremented)."""
        return self.as_dict().get(name, 0.0)

    def as_dict(self) -> dict[str, float]:
        """Snapshot of all counters."""
        if self._derived is None:
            return dict(self._counters)
        return {**self._counters, **self._derived()}

    def __contains__(self, name: str) -> bool:
        return name in self.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v:g}" for k, v in sorted(self.as_dict().items()))
        return f"StatSet({body})"


class BusyTracker:
    """Accumulates non-overlapping busy intervals for utilization reporting.

    Callers mark work with :meth:`occupy`, which extends the busy horizon;
    overlapping requests serialize, which is exactly the behaviour of a
    single shared resource (a DNA array, a memory channel, a NoC link).

    An optional *span sink* (:meth:`attach_span_sink`) receives one
    ``(request_ns, start_ns, finish_ns)`` record per grant, which is how
    the observability layer (:mod:`repro.obs`) reconstructs busy- and
    stall-spans for timeline export.  With no sink attached the tracker
    does no extra work beyond one ``is not None`` check per grant.
    """

    __slots__ = ("_busy_until", "_busy_time", "_span_sink")

    def __init__(self) -> None:
        self._busy_until = 0.0
        self._busy_time = 0.0
        self._span_sink: list[tuple[float, float, float]] | None = None

    def attach_span_sink(
        self, sink: list[tuple[float, float, float]]
    ) -> None:
        """Record every future grant as ``(request, start, finish)`` into
        ``sink`` (any object with ``append``)."""
        self._span_sink = sink

    @property
    def busy_until(self) -> float:
        """Time at which the resource next becomes free."""
        return self._busy_until

    @property
    def busy_time(self) -> float:
        """Total accumulated busy time."""
        return self._busy_time

    def occupy(self, now: float, duration: float) -> tuple[float, float]:
        """Reserve the resource for ``duration`` starting no earlier than ``now``.

        Returns ``(start, finish)`` of the granted interval.  If the
        resource is still busy at ``now`` the interval starts when it
        frees up (FIFO serialization).
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        busy_until = self._busy_until
        start = busy_until if busy_until > now else now
        finish = start + duration
        self._busy_until = finish
        self._busy_time += duration
        if self._span_sink is not None:
            self._span_sink.append((now, start, finish))
        return start, finish

    def record_span(self, now: float, start: float, finish: float) -> None:
        """Account a busy span without serializing behind it.

        Unlike :meth:`occupy`, the busy horizon (``busy_until``) does not
        advance, so later callers are never queued behind the span — the
        contention-free bookkeeping the analytical NoC backend needs to
        report utilization and feed the observability timeline while
        keeping its zero-contention delivery model.  ``busy_until`` still
        moves only through :meth:`occupy` (e.g. fault blackouts), which
        keeps :func:`stalled_links`-style wedge detection meaningful.
        """
        if finish < start:
            raise ValueError("span cannot end before it starts")
        self._busy_time += finish - start
        if self._span_sink is not None:
            self._span_sink.append((now, start, finish))

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` time the resource spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_time / elapsed)
