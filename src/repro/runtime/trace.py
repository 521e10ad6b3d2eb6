"""Execution tracing for the runtime engine.

Run a :class:`~repro.runtime.engine.RuntimeEngine` with an
:class:`~repro.obs.Observer` and every vertex program records its phase
transitions with timestamps in the observer's :class:`Tracer` — the
tool that found this reproduction's own scheduling bugs, kept as a
first-class debugging feature.  Tracing is off by default and costs
nothing when disabled.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceEvent:
    """One phase transition of one vertex program."""

    time_ns: float
    layer: str
    vertex: int
    phase: str
    tile: tuple[int, int]


@dataclass
class Tracer:
    """Collects :class:`TraceEvent` records during a simulation."""

    events: list[TraceEvent] = field(default_factory=list)

    def record(
        self,
        time_ns: float,
        layer: str,
        vertex: int,
        phase: str,
        tile: tuple[int, int],
    ) -> None:
        """Append one event (called by the engine)."""
        self.events.append(TraceEvent(time_ns, layer, vertex, phase, tile))

    # -- queries -----------------------------------------------------------

    def for_vertex(self, vertex: int) -> list[TraceEvent]:
        """All events of one vertex, in record order."""
        return [e for e in self.events if e.vertex == vertex]

    def phase_counts(self) -> dict[str, int]:
        """How many events each phase produced."""
        return dict(Counter(e.phase for e in self.events))

    def task_spans(self) -> dict[tuple[str, int], tuple[float, float]]:
        """(layer, vertex) -> (first event time, last event time)."""
        spans: dict[tuple[str, int], tuple[float, float]] = {}
        for event in self.events:
            key = (event.layer, event.vertex)
            if key in spans:
                start, end = spans[key]
                spans[key] = (min(start, event.time_ns),
                              max(end, event.time_ns))
            else:
                spans[key] = (event.time_ns, event.time_ns)
        return spans

    def slowest_tasks(self, count: int = 5) -> list[tuple[str, int, float]]:
        """The ``count`` longest task spans: (layer, vertex, duration).

        An empty trace yields an empty list; ``count`` may exceed the
        number of recorded tasks (you get them all).  A negative
        ``count`` is rejected — silently passing it to the slice would
        drop the *slowest* tasks, the exact opposite of the question.
        """
        if count < 0:
            raise ValueError(f"count cannot be negative, got {count}")
        spans = self.task_spans()
        ranked = sorted(
            ((layer, vertex, end - start)
             for (layer, vertex), (start, end) in spans.items()),
            key=lambda item: item[2],
            reverse=True,
        )
        return ranked[:count]

    def __len__(self) -> int:
        return len(self.events)
