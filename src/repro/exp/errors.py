"""Structured error taxonomy of the sweep and serving layers.

Every way work can fail — the simulation kernel, a sweep, a broken
serving simulation — maps to one exception class descending from
:class:`repro.errors.ReproError` (re-exported here as the hierarchy's
public root), so callers branch on type or on the ``status`` attribute
instead of parsing messages.

Simulator level — :class:`repro.sim.kernel.SimulationError`,
:class:`repro.sim.watchdog.WatchdogTrip`, and
:class:`repro.runtime.engine.SimulationFailure` — is deterministic,
``status`` ``"diverged"``: a bit-deterministic simulator fails the same
way every time, so the sweep runner never retries it.

Sweep level: a point's outcome is a status string of its
:class:`~repro.exp.runner.PointResult` — ``"timeout"`` when the parent
killed the worker at the attempt's wall-clock deadline, ``"crash"``
when the worker died after every retry, ``"diverged"`` or ``"error"``
when the attempt raised.  :class:`SweepFailed` aggregates: it is what
the strict :func:`~repro.exp.runner.run_sweep` raises when any point in
a sweep ends in failure, carrying the full per-point outcome.

Serving level (:mod:`repro.serve`): :class:`ServeError` — the serving
scheduler itself broke (event budget exhausted, lost-request
accounting).  Request-level outcomes (shed, ``request-timeout``,
``instance-down``) are not exceptions: the scheduler accounts them as
status strings in its report.

:func:`classify` maps *any* exception (taxonomy member or foreign) to
its status; it is how the sweep runner classifies a failed attempt.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.exp.runner import SweepOutcome

__all__ = [
    "ReproError",
    "SweepError",
    "ServeError",
    "SweepFailed",
    "classify",
]


class SweepError(ReproError):
    """Base class for every sweep-layer failure."""


class ServeError(ReproError):
    """The serving simulation (``repro.serve``) broke.

    Carries the request id and the simulated time of the failure so a
    replayed trace can be diffed failure-by-failure.
    """

    def __init__(
        self,
        message: str,
        *,
        request_id: int = -1,
        at_ms: float = 0.0,
        attempts: int = 1,
    ) -> None:
        super().__init__(message)
        self.request_id = request_id
        self.at_ms = at_ms
        self.attempts = attempts


class SweepFailed(SweepError):
    """At least one point of a sweep failed; carries the full outcome."""

    def __init__(self, outcome: "SweepOutcome") -> None:
        super().__init__(outcome.summary())
        self.outcome = outcome


def classify(exc: BaseException) -> str:
    """Map any exception to its taxonomy status.

    Taxonomy members answer from their class attribute; foreign
    exceptions classify as a generic ``"error"``.
    """
    return exc.status if isinstance(exc, ReproError) else "error"
