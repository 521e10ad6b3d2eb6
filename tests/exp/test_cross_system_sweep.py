"""Sweeping mixed-system point grids through the shared runner."""

import dataclasses

import pytest

from repro.accel.config import CPU_ISO_BW
from repro.exp import cache as cache_module
from repro.exp.cache import ResultCache, clear_memo
from repro.exp.runner import Point, run_sweep_detailed
from repro.partition import ShardSpec
from repro.runtime.report import SimulationReport
from repro.systems import SystemReport, system_plan
from repro.systems.base import ExecutionPlan


class TestPointValidation:
    def test_accel_point_requires_a_config(self):
        with pytest.raises(ValueError):
            Point("gcn-cora")

    def test_analytical_point_rejects_a_config(self):
        with pytest.raises(ValueError):
            Point("gcn-cora", CPU_ISO_BW, 2.4, system="cpu")

    def test_multichip_point_takes_the_chip_config(self):
        config = CPU_ISO_BW.with_noc_backend("analytical")
        point = Point("gcn-cora", config, system="multichip")
        assert point.key == system_plan(
            "multichip", "gcn-cora", noc_backend="analytical"
        ).key

    def test_multichip_point_rejects_an_unnamed_config(self):
        memory = dataclasses.replace(CPU_ISO_BW.memory, bandwidth_gbps=1.0)
        config = dataclasses.replace(CPU_ISO_BW, memory=memory)
        with pytest.raises(ValueError, match="named row"):
            Point("gcn-cora", config, system="multichip").plan()

    def test_describe_names_the_system(self):
        assert "cpu" in Point("gcn-cora", system="cpu").describe()

    def test_keys_differ_across_systems(self):
        keys = {
            Point("gcn-cora", system=system).key
            for system in ("cpu", "gpu", "eyeriss")
        }
        keys.add(Point("gcn-cora", CPU_ISO_BW, 2.4).key)
        assert len(keys) == 4


class TestMixedSweep:
    def test_mixed_grid_executes_and_caches(self, tmp_path):
        cache = ResultCache(tmp_path)
        points = [
            Point("gcn-cora", CPU_ISO_BW, 2.4),
            Point("gcn-cora", system="cpu"),
            Point("gcn-cora", system="eyeriss"),
        ]
        clear_memo()  # other tests may have executed these points already
        outcome = run_sweep_detailed(points, jobs=1, cache=cache)
        assert outcome.ok
        reports = [result.report for result in outcome.results]
        assert isinstance(reports[0], SimulationReport)
        assert isinstance(reports[1], SystemReport)
        assert reports[1].system == "cpu"
        assert reports[2].system == "eyeriss"
        # A fresh "process" is served entirely from the persistent
        # cache, with equal reports for every kind.
        clear_memo()
        again = run_sweep_detailed(points, jobs=1, cache=cache)
        assert [result.status for result in again.results] == [
            "cached", "cached", "cached",
        ]
        assert [result.report for result in again.results] == reports
        clear_memo()

    def test_unsupported_workload_is_a_failed_point(self, tmp_path):
        # Eyeriss cannot map PGNN's dependent traversal: the point
        # fails cleanly instead of crashing the sweep.
        cache = ResultCache(tmp_path)
        outcome = run_sweep_detailed(
            [Point("pgnn-dblp_1", system="eyeriss")], jobs=1, cache=cache
        )
        assert not outcome.ok
        (result,) = outcome.results
        assert result.status == "error"
        assert "pgnn0.combine" in (result.error or "")  # names the phases


class TestPointKey:
    def test_repeat_sweep_reuses_every_key(self, tmp_path, monkeypatch):
        # A point computes its key once: a second sweep over the same
        # objects fingerprints no accel or shard point and prepares no
        # cross-system plan.
        cache = ResultCache(tmp_path)
        points = [
            Point("gcn-cora", CPU_ISO_BW, 2.4),
            Point("gcn-cora", CPU_ISO_BW, 2.4,
                  shard=ShardSpec(chips=2, index=1)),
            Point("gcn-cora", system="cpu"),
        ]
        clear_memo()
        assert run_sweep_detailed(points, jobs=1, cache=cache).ok

        built = []
        fingerprint = cache_module.point_fingerprint
        init = ExecutionPlan.__init__

        def counted_fingerprint(*args, **kwargs):
            built.append("fingerprint")
            return fingerprint(*args, **kwargs)

        def counted_init(self, *args, **kwargs):
            built.append("plan")
            init(self, *args, **kwargs)

        monkeypatch.setattr(cache_module, "point_fingerprint",
                            counted_fingerprint)
        monkeypatch.setattr(ExecutionPlan, "__init__", counted_init)
        again = run_sweep_detailed(points, jobs=1, cache=cache)
        assert [r.status for r in again.results] == ["cached"] * 3
        assert built == []
        # The counters see a fresh point's key being built.
        fresh = [dataclasses.replace(point) for point in points]
        assert [point.key for point in fresh] == [p.key for p in points]
        assert built == ["fingerprint", "fingerprint", "plan"]
        clear_memo()

    def test_kept_key_is_not_a_field(self):
        point = Point("gcn-cora", system="cpu")
        twin = Point("gcn-cora", system="cpu")
        key = point.key
        assert point == twin and hash(point) == hash(twin)
        assert repr(point) == repr(twin)
        assert key not in repr(point)
        moved = dataclasses.replace(point, system="gpu")
        assert moved.key != key
        assert moved.key == Point("gcn-cora", system="gpu").key
