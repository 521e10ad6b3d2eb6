"""Structured error taxonomy of the sweep and serving layers.

Every way work can fail — an operating point of a sweep, a broken
serving simulation, the simulation kernel itself — maps to one exception
class descending from :class:`repro.errors.ReproError` (re-exported here
as the hierarchy's public root), so callers branch on type or on the
``status``/``retryable`` attributes instead of parsing messages.

Sweep level:

* :class:`PointTimeout` — the worker running the point was still busy at
  the attempt's wall-clock deadline, and the parent killed it;
* :class:`PointCrash` — the worker process died (killed, OOM); the point
  runs again in a fresh worker up to the policy's limit;
* :class:`SimulationDiverged` — the simulation itself failed
  deterministically (watchdog trip, deadlock, invalid program); never
  retried, because a bit-deterministic simulator fails the same way
  every time.

Serving level (:mod:`repro.serve`): :class:`ServeError` — the serving
scheduler itself broke (event budget exhausted, lost-request
accounting).  Request-level outcomes (shed, ``request-timeout``,
``instance-down``) are not exceptions: the scheduler accounts them as
status strings in its report.

Simulator level — :class:`repro.sim.kernel.SimulationError`,
:class:`repro.sim.watchdog.WatchdogTrip`, and
:class:`repro.runtime.engine.SimulationFailure` — joins the same root:
all deterministic, never retryable, ``status`` ``"diverged"``.

:func:`classify` maps *any* exception (taxonomy member or foreign) to a
``(status, retryable)`` pair; it is how the sweep runner classifies a
failed point.

:class:`SweepFailed` aggregates: it is what the strict
:func:`~repro.exp.runner.run_sweep` raises when any point in a sweep
ends in failure, carrying the full per-point outcome.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.exp.runner import SweepOutcome

__all__ = [
    "ReproError",
    "SweepError",
    "PointError",
    "PointTimeout",
    "PointCrash",
    "SimulationDiverged",
    "ServeError",
    "SweepFailed",
    "STATUS_ERRORS",
    "classify",
]


class SweepError(ReproError):
    """Base class for every sweep-layer failure."""


class PointError(SweepError):
    """One operating point failed; knows which point and how often it ran."""

    #: Machine-readable status tag, mirrored in ``PointResult.status``.
    status = "error"
    #: Whether the retry policy may re-attempt this failure class.
    retryable = False

    def __init__(
        self,
        message: str,
        *,
        benchmark: str = "",
        config_name: str = "",
        clock_ghz: float | None = None,
        attempts: int = 1,
    ) -> None:
        super().__init__(message)
        self.benchmark = benchmark
        self.config_name = config_name
        self.clock_ghz = clock_ghz
        self.attempts = attempts


class PointTimeout(PointError):
    """The point's attempt outlived its wall-clock budget; its worker
    was killed."""

    status = "timeout"
    retryable = False


class PointCrash(PointError):
    """The worker died (killed, OOM) — a transient failure."""

    status = "crash"
    retryable = True


class SimulationDiverged(PointError):
    """The simulation failed deterministically (watchdog trip, deadlock)."""

    status = "diverged"
    retryable = False


#: status tag -> exception class, for rebuilding typed errors from the
#: plain data a worker process hands back.
STATUS_ERRORS: dict[str, type[PointError]] = {
    cls.status: cls
    for cls in (PointError, PointTimeout, PointCrash, SimulationDiverged)
}


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


def classify(exc: BaseException) -> tuple[str, bool]:
    """Map any exception to its taxonomy ``(status, retryable)`` pair.

    Taxonomy members answer from their class attributes; foreign
    exceptions classify as a generic non-retryable ``"error"``.  The
    sweep runner classifies every failed attempt through it.
    """
    if isinstance(exc, ReproError):
        return exc.status, exc.retryable
    return "error", False
