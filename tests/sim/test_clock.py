"""Tests for clock-domain conversion."""

import pytest

from repro.sim import Clock


def test_period_of_one_ghz_clock():
    assert Clock(1.0).cycles_to_ns(1) == 1.0


def test_cycles_to_ns_at_2p4_ghz():
    clock = Clock(2.4)
    assert clock.cycles_to_ns(24) == pytest.approx(10.0)


def test_ns_to_cycles_roundtrip():
    clock = Clock(1.2)
    assert clock.ns_to_cycles(clock.cycles_to_ns(7.0)) == pytest.approx(7.0)


def test_non_positive_frequency_rejected():
    with pytest.raises(ValueError):
        Clock(0.0)
    with pytest.raises(ValueError):
        Clock(-2.4)
