"""Tests for the statistics helpers."""

import pytest

from repro.sim import BusyTracker, StatSet


class TestStatSet:
    def test_missing_counter_is_zero(self):
        assert StatSet().get("anything") == 0.0

    def test_add_accumulates(self):
        stats = StatSet()
        stats.add("ops", 3)
        stats.add("ops", 4)
        assert stats.get("ops") == 7

    def test_default_increment_is_one(self):
        stats = StatSet()
        stats.add("events")
        stats.add("events")
        assert stats.get("events") == 2

    def test_contains(self):
        stats = StatSet()
        stats.add("seen")
        assert "seen" in stats
        assert "unseen" not in stats

    def test_as_dict_snapshot_is_independent(self):
        stats = StatSet()
        stats.add("x", 1)
        snapshot = stats.as_dict()
        stats.add("x", 1)
        assert snapshot["x"] == 1


class TestBusyTracker:
    def test_idle_resource_starts_immediately(self):
        tracker = BusyTracker()
        start, finish = tracker.occupy(10.0, 5.0)
        assert (start, finish) == (10.0, 15.0)

    def test_overlapping_requests_serialize(self):
        tracker = BusyTracker()
        tracker.occupy(0.0, 10.0)
        start, finish = tracker.occupy(3.0, 5.0)
        assert (start, finish) == (10.0, 15.0)

    def test_busy_time_accumulates(self):
        tracker = BusyTracker()
        tracker.occupy(0.0, 4.0)
        tracker.occupy(100.0, 6.0)
        assert tracker.busy_time == 10.0

    def test_utilization_fraction(self):
        tracker = BusyTracker()
        tracker.occupy(0.0, 25.0)
        assert tracker.utilization(100.0) == pytest.approx(0.25)

    def test_utilization_caps_at_one(self):
        tracker = BusyTracker()
        tracker.occupy(0.0, 50.0)
        assert tracker.utilization(10.0) == 1.0

    def test_utilization_of_zero_elapsed_is_zero(self):
        assert BusyTracker().utilization(0.0) == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            BusyTracker().occupy(0.0, -1.0)
