"""The unified failure taxonomy: one root, one classification path.

:class:`WatchdogTrip`, :class:`SimulationFailure` and the serving error
all hang off :class:`repro.errors.ReproError`, each with a ``status``
attribute, and :func:`classify` is the single exception -> status
mapping the sweep runner uses.
"""

import pytest

from repro.accel.config import CPU_ISO_BW, resolve_config
from repro.errors import ReproError, UnknownNameError
from repro.exp.errors import ServeError, classify
from repro.runtime.engine import SimulationFailure
from repro.sim.kernel import SimulationError
from repro.sim.watchdog import WatchdogDiagnosis, WatchdogTrip


def diagnosis(reason: str) -> WatchdogDiagnosis:
    return WatchdogDiagnosis(reason=reason, budget=10.0, events_fired=5,
                             now_ns=100.0, next_event_ns=110.0,
                             queue_depth=1)


class TestOneHierarchy:
    @pytest.mark.parametrize("cls", [
        SimulationError, SimulationFailure, ServeError,
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
        # breaks the same way again.
        assert ServeError.status == "error"

    def test_simulator_failures_never_retry(self):
        # Bit-deterministic simulations fail identically on re-run, so
        # they are "diverged", which the sweep runner never retries.
        assert SimulationError.status == "diverged"
        assert WatchdogTrip(diagnosis("stall")).status == "diverged"
        assert SimulationFailure("wedged").status == "diverged"

    def test_serve_error_carries_replay_coordinates(self):
        exc = ServeError("too slow", request_id=17, at_ms=42.5, attempts=2)
        assert (exc.request_id, exc.at_ms, exc.attempts) == (17, 42.5, 2)


class TestClassify:
    @pytest.mark.parametrize("exc, expected", [
        (ServeError("x"), "error"),
        (SimulationError("x"), "diverged"),
        (SimulationFailure("x"), "diverged"),
        (ValueError("foreign"), "error"),
        (KeyboardInterrupt(), "error"),
    ])
    def test_status_pairs(self, exc, expected):
        assert classify(exc) == expected


class TestUnknownName:
    def test_caught_as_key_error_and_as_value_error(self):
        with pytest.raises(KeyError) as lookup_error:
            resolve_config("x")
        with pytest.raises(ValueError) as argument_error:
            CPU_ISO_BW.with_noc_backend("booksim")
        for exc in (lookup_error.value, argument_error.value):
            assert isinstance(exc, UnknownNameError)
        assert (lookup_error.value.kind, lookup_error.value.name) == (
            "configuration", "x")
        assert str(argument_error.value) == (
            "unknown NoC backend 'booksim'; valid: packet, flit, analytical"
        )
