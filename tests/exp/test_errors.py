"""The unified failure taxonomy: one root, one classification path.

:class:`WatchdogTrip`, :class:`SimulationFailure`, the sweep point
errors and the serving error all hang off
:class:`repro.errors.ReproError`, each with ``status``/``retryable``
attributes, and :func:`classify` is the single exception ->
``(status, retryable)`` mapping the sweep runner uses.
"""

import pytest

from repro.errors import ReproError
from repro.exp.errors import (
    PointCrash,
    PointTimeout,
    ServeError,
    SimulationDiverged,
    classify,
)
from repro.runtime.engine import SimulationFailure
from repro.sim.kernel import SimulationError
from repro.sim.watchdog import WatchdogDiagnosis, WatchdogTrip


def diagnosis(reason: str) -> WatchdogDiagnosis:
    return WatchdogDiagnosis(reason=reason, budget=10.0, events_fired=5,
                             now_ns=100.0, next_event_ns=110.0,
                             queue_depth=1)


class TestOneHierarchy:
    @pytest.mark.parametrize("cls", [
        SimulationError, SimulationFailure, PointTimeout, PointCrash,
        SimulationDiverged, ServeError,
    ])
    def test_everything_descends_from_the_root(self, cls):
        assert issubclass(cls, ReproError)
        assert issubclass(cls, RuntimeError)  # except-RuntimeError still works

    def test_watchdog_trip_is_a_repro_error(self):
        assert isinstance(WatchdogTrip(diagnosis("max_events")), ReproError)


class TestStatusAndRetryability:
    def test_serving_retry_semantics(self):
        # The scheduler raises only when it is itself broken (a looping
        # event queue, lost-request accounting): a deterministic replay
        # breaks the same way again, so it never retries.
        assert not ServeError.retryable
        assert ServeError.status == "error"

    def test_simulator_failures_never_retry(self):
        # Bit-deterministic simulations fail identically on re-run.
        assert not SimulationError.retryable
        assert not WatchdogTrip(diagnosis("stall")).retryable
        assert not SimulationFailure("wedged").retryable

    def test_wall_clock_trip_reclassifies_as_timeout(self):
        # max_wall is the *host* running out of patience, not the
        # simulation diverging — the only instance-level status override.
        assert WatchdogTrip(diagnosis("max_wall")).status == "timeout"
        assert WatchdogTrip(diagnosis("max_events")).status == "diverged"
        assert WatchdogTrip(diagnosis("stall")).status == "diverged"

    def test_serve_error_carries_replay_coordinates(self):
        exc = ServeError("too slow", request_id=17, at_ms=42.5, attempts=2)
        assert (exc.request_id, exc.at_ms, exc.attempts) == (17, 42.5, 2)


class TestClassify:
    @pytest.mark.parametrize("exc, expected", [
        (ServeError("x"), ("error", False)),
        (PointCrash("x"), ("crash", True)),
        (PointTimeout("x"), ("timeout", False)),
        (SimulationError("x"), ("diverged", False)),
        (SimulationFailure("x"), ("diverged", False)),
        (ValueError("foreign"), ("error", False)),
        (KeyboardInterrupt(), ("error", False)),
    ])
    def test_status_pairs(self, exc, expected):
        assert classify(exc) == expected

    def test_classify_honours_instance_level_override(self):
        assert classify(WatchdogTrip(diagnosis("max_wall"))) \
            == ("timeout", False)
