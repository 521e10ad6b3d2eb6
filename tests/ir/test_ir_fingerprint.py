"""Cache-poisoning regressions for the IR content fingerprint.

Every result-cache key — accelerator points, per-shard points, and the
cross-system execution plans — carries the benchmark's layer-IR digest
as its ``ir`` stanza (:func:`repro.exp.cache.key_document`).  These tests pin the
failure mode the digest exists to prevent: a model re-sized (or an IR
revision) silently aliasing into stale cached results.
"""

import json

import pytest

from repro.accel.config import CPU_ISO_BW
from repro.exp.cache import point_fingerprint, point_key
from repro.models import registry
from repro.models.registry import ModelFamily, benchmark_ir_digest
from repro.partition.core import ShardSpec
from repro.systems import create_system, system_plan


@pytest.fixture(autouse=True)
def _fresh_digest_cache():
    # The digest memo must never leak a pre-monkeypatch value into a
    # test (or a post-monkeypatch value out of one).
    benchmark_ir_digest.cache_clear()
    yield
    benchmark_ir_digest.cache_clear()


def _resize_gcn(monkeypatch, hidden: int) -> None:
    """Re-register the GCN family at a different hidden width."""
    original = registry.MODEL_FAMILIES["GCN"]
    monkeypatch.setitem(
        registry.MODEL_FAMILIES,
        "GCN",
        ModelFamily(
            name="GCN",
            cls=original.cls,
            config=lambda stats: {
                "in_features": stats.vertex_features,
                "hidden_features": hidden,
                "out_features": stats.output_features,
            },
        ),
    )


class TestWorkloadFingerprint:
    def test_model_stanza_is_the_ir_digest(self):
        fp = system_plan("cpu", "gcn-cora").fingerprint()
        assert fp["ir"] == benchmark_ir_digest("gcn-cora")
        assert len(fp["ir"]) == 64
        json.dumps(fp)  # stays plain data

    def test_resized_model_changes_every_plan_key(self, monkeypatch):
        before = {
            system: create_system(system).prepare("gcn-cora").key
            for system in ("cpu", "gpu", "eyeriss", "accel")
        }
        _resize_gcn(monkeypatch, hidden=17)
        benchmark_ir_digest.cache_clear()
        after = {
            system: create_system(system).prepare("gcn-cora").key
            for system in ("cpu", "gpu", "eyeriss", "accel")
        }
        for system in before:
            assert before[system] != after[system], system


class TestPointFingerprint:
    def test_carries_the_ir_digest(self):
        doc = point_fingerprint("gcn-cora", CPU_ISO_BW)
        assert doc["ir"] == benchmark_ir_digest("gcn-cora")
        json.dumps(doc)

    def test_resized_model_changes_the_point_key(self, monkeypatch):
        before = point_key("gcn-cora", CPU_ISO_BW)
        _resize_gcn(monkeypatch, hidden=17)
        benchmark_ir_digest.cache_clear()
        assert point_key("gcn-cora", CPU_ISO_BW) != before

    def test_different_benchmarks_never_share_a_digest(self):
        digests = {
            key: benchmark_ir_digest(key)
            for key in ("gcn-cora", "gcn-citeseer", "gat-cora",
                        "sage-cora", "gin-citeseer")
        }
        assert len(set(digests.values())) == len(digests)


class TestShardFingerprint:
    def test_carries_the_ir_digest(self):
        spec = ShardSpec(chips=2, index=0, method="bfs", seed=0)
        doc = point_fingerprint("gcn-cora", CPU_ISO_BW, shard=spec)
        assert doc["ir"] == benchmark_ir_digest("gcn-cora")
        assert doc["shard"] == spec.fingerprint()
        json.dumps(doc)

    def test_shard_and_whole_graph_keys_differ(self):
        spec = ShardSpec(chips=2, index=0, method="bfs", seed=0)
        assert point_key("gcn-cora", CPU_ISO_BW, shard=spec) != point_key(
            "gcn-cora", CPU_ISO_BW
        )
