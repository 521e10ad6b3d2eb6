"""Plan preparation, plan fingerprints, and cache-key safety.

The acceptance bar for the systems refactor: every cache fingerprint
names the system that produced it, so per-system results can never
poison each other in the shared result cache.
"""

import pytest

from repro.accel.config import CPU_ISO_BW
from repro.exp.cache import (
    ResultCache,
    clear_memo,
    point_fingerprint,
    point_key,
)
from repro.systems import run_system, system_plan

SYSTEMS = ("accel", "cpu", "gpu", "eyeriss", "multichip")


class TestResolveWorkload:
    """A requested benchmark resolves into a plan by its key alone."""

    def test_fingerprint_is_plain_data(self):
        import json

        fingerprint = system_plan("cpu", "gcn-cora").fingerprint()
        assert fingerprint["benchmark"] == "gcn-cora"
        json.dumps(fingerprint)  # canonicalizable, hence hashable

    def test_unknown_benchmark_lists_valid_keys(self):
        with pytest.raises(KeyError) as excinfo:
            system_plan("cpu", "bert-wikipedia")
        assert "gcn-cora" in str(excinfo.value)


class TestCacheKeySafety:
    def test_every_plan_fingerprint_names_its_system(self):
        for system in SYSTEMS:
            fingerprint = system_plan(system, "gcn-cora").fingerprint()
            assert fingerprint["system"] == system

    def test_accel_point_fingerprint_names_its_system(self):
        fingerprint = point_fingerprint("gcn-cora", CPU_ISO_BW)
        assert fingerprint["system"] == "accel"

    def test_plan_keys_are_distinct_across_systems(self):
        # Cache-poisoning regression: the same benchmark on different
        # systems must hash to different cache entries.
        keys = {
            system_plan(system, "gcn-cora").key for system in SYSTEMS
        }
        assert len(keys) == len(SYSTEMS)

    def test_accel_plan_never_shares_its_point_entry(self):
        # run_system("accel") stores a SystemReport under the plan key
        # and the inner SimulationReport under the point key; the plan's
        # nested params stanza keeps the two documents apart.
        plan = system_plan("accel", "gcn-cora")
        point = point_fingerprint("gcn-cora", CPU_ISO_BW)
        assert plan.fingerprint()["params"]["config"] == point["config"]
        assert plan.key != point_key("gcn-cora", CPU_ISO_BW)

    def test_every_benchmark_has_a_plan_on_every_system(self):
        # Mappability is checked when a plan executes, so even a
        # benchmark eyeriss cannot map has a plan key.
        from repro.models.registry import ALL_BENCHMARKS

        for system in SYSTEMS:
            for benchmark in ALL_BENCHMARKS:
                assert len(system_plan(system, benchmark.key).key) == 64

    def test_shorthand_and_full_key_share_a_plan(self):
        assert system_plan("cpu", "qm9") == system_plan("cpu",
                                                        "mpnn-qm9_1000")

    def test_cross_system_entries_round_trip_unmixed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cpu = run_system("cpu", "gcn-cora", cache=cache)
        gpu = run_system("gpu", "gcn-cora", cache=cache)
        assert cpu.latency_ms != gpu.latency_ms
        # A fresh "process" (memo dropped) reloads both from disk and
        # keeps them apart.
        clear_memo()
        assert run_system("cpu", "gcn-cora", cache=cache) == cpu
        assert run_system("gpu", "gcn-cora", cache=cache) == gpu
        clear_memo()  # drop the non-default-cache entries again

    def test_system_reports_persist_with_a_kind_tag(self, tmp_path):
        import json

        cache = ResultCache(tmp_path)
        report = run_system("eyeriss", "gcn-cora", cache=cache)
        key = system_plan("eyeriss", "gcn-cora").key
        payload = json.loads(
            cache.path_for(key).read_text(encoding="utf-8")
        )
        assert payload["kind"] == "system"
        clear_memo()
        assert run_system("eyeriss", "gcn-cora", cache=cache) == report
        clear_memo()
