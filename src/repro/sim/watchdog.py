"""Execution budgets for the discrete-event kernel.

The simulator itself has no opinion about how long a run should take: a
malformed configuration or an injected hardware fault can schedule events
arbitrarily far into the future, or spin through millions of events
without advancing simulated time.  A :class:`WatchdogConfig` passed to
``Simulator.run`` bounds the run along three independent axes, which the
kernel's dispatch loop checks as local variables before each event:

* ``max_time_ms`` — simulated-time ceiling (checked against the *next*
  event's timestamp, so a single far-future event trips the budget
  before time jumps);
* ``max_events`` — total events fired by this run;
* ``stall_events`` — forward-progress window: consecutive events at one
  simulated timestamp before the run is declared stalled.

On any trip the loop raises :class:`WatchdogTrip`, a
:class:`~repro.sim.kernel.SimulationError` carrying a structured
:class:`WatchdogDiagnosis` — current time, queue depth, and pending-event
counts grouped by owning module — instead of letting the kernel spin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sim.kernel import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import QueueEntry, Simulator


@dataclass(frozen=True)
class WatchdogConfig:
    """Budgets for one :class:`~repro.sim.kernel.Simulator` run.

    The defaults are deliberately generous — two to three orders of
    magnitude above anything a paper benchmark needs (a Pubmed-scale run
    is ~1e5 events and a few milliseconds of simulated time) — so healthy
    workloads never notice the watchdog while a wedged one is still
    diagnosed in bounded time.  ``None`` disables an axis; all-``None``
    runs unbounded.
    """

    max_events: int | None = 50_000_000
    max_time_ms: float | None = 60_000.0  # one minute of simulated time
    stall_events: int | None = 1_000_000

    def __post_init__(self) -> None:
        for name in ("max_events", "stall_events"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive or None")
        if self.max_time_ms is not None and self.max_time_ms <= 0:
            raise ValueError("max_time_ms must be positive or None")

    def trip(
        self, reason: str, sim: "Simulator", entry: "QueueEntry",
        events_fired: int,
    ) -> "WatchdogTrip":
        """The exception for the ``reason`` budget, which the queue
        ``entry`` (still queued on ``sim``) would exceed after
        ``events_fired`` events of the run."""
        budget = {
            "max_time": self.max_time_ms,
            "max_events": self.max_events,
            "stall": self.stall_events,
        }[reason]
        return WatchdogTrip(
            WatchdogDiagnosis(
                reason=reason,
                budget=budget,
                events_fired=events_fired,
                now_ns=sim.now,
                next_event_ns=entry[0],
                queue_depth=sim.pending,
                pending_by_owner=sim.pending_by_owner(),
            )
        )


@dataclass
class WatchdogDiagnosis:
    """Everything known about the kernel at the moment a budget tripped."""

    reason: str  # "max_events" | "max_time" | "stall"
    budget: float
    events_fired: int
    now_ns: float
    next_event_ns: float
    queue_depth: int
    pending_by_owner: dict[str, int] = field(default_factory=dict)

    def format(self) -> str:
        detail = {
            "max_events": f"event budget of {self.budget:g} exhausted",
            "max_time": (
                f"next event at {self.next_event_ns:g} ns exceeds the "
                f"{self.budget:g} ms simulated-time budget"
            ),
            "stall": (
                f"no forward progress over {self.budget:g} events at "
                f"t={self.now_ns:g} ns"
            ),
        }[self.reason]
        owners = ", ".join(
            f"{name} x{count}"
            for name, count in sorted(
                self.pending_by_owner.items(), key=lambda kv: -kv[1]
            )[:6]
        ) or "none"
        return (
            f"simulation watchdog tripped ({self.reason}): {detail} "
            f"[t={self.now_ns:g} ns, {self.events_fired} events fired, "
            f"{self.queue_depth} queued; pending: {owners}]"
        )


class WatchdogTrip(SimulationError):
    """A watchdog budget was exceeded; carries the full diagnosis.

    Taxonomy: every budget (events, simulated time, stall window) bounds
    the deterministic simulation itself, so a trip is ``"diverged"``:
    re-running a bit-deterministic simulation reproduces the same
    trajectory.
    """

    def __init__(self, diagnosis: WatchdogDiagnosis) -> None:
        super().__init__(diagnosis.format())
        self.diagnosis = diagnosis
