"""Golden scaling snapshot + cache-poisoning regressions.

``scaling_golden.json`` pins the gcn-pubmed multi-chip scaling curve
(metis, seed 0, CPU iso-BW @ 2.4 GHz, analytical NoC) at chips 1/2/4.
Speedup and communication volume must stay inside a 1% band of the
snapshot — a drifting partitioner, link model, or shard compiler all
trip this test.  The fingerprint tests guarantee a configuration change
can never be served a stale cache entry.
"""

import json
from pathlib import Path

import pytest

from repro.eval.partition_sweep import partition_scaling
from repro.exp.cache import point_fingerprint, point_key
from repro.partition import ShardSpec
from repro.systems import SystemOptions, system_plan
from repro.systems.accel import resolve_accel_config
from repro.systems.multichip import MultiChipConfig

GOLDEN = json.loads(
    (Path(__file__).parent / "scaling_golden.json").read_text()
)
BAND = 0.01  # 1% relative tolerance

FAST_CHIPS = (1, 2)
ALL_CHIPS = tuple(p["chips"] for p in GOLDEN["points"])


def golden_point(chips):
    return next(p for p in GOLDEN["points"] if p["chips"] == chips)


def compute_points(chip_counts):
    return partition_scaling(
        GOLDEN["benchmark"],
        chip_counts=chip_counts,
        method=GOLDEN["method"],
        seed=GOLDEN["seed"],
        config_name=GOLDEN["config"],
        clock_ghz=GOLDEN["clock_ghz"],
        noc_backend=GOLDEN["noc_backend"],
    )


def assert_in_band(points):
    for point in points:
        golden = golden_point(point.chips)
        assert point.speedup == pytest.approx(
            golden["speedup"], rel=BAND
        ), f"speedup drifted at chips={point.chips}"
        assert point.communication_mb == pytest.approx(
            golden["communication_mb"], rel=BAND, abs=1e-12
        ), f"communication volume drifted at chips={point.chips}"
        assert point.cut_edges == golden["cut_edges"]
        assert point.halo_nodes == golden["halo_nodes"]


def test_golden_snapshot_is_well_formed():
    assert GOLDEN["schema"] == 1
    assert GOLDEN["benchmark"] == "gcn-pubmed"
    assert ALL_CHIPS == (1, 2, 4)
    base = golden_point(1)
    assert base["speedup"] == 1.0
    assert base["communication_mb"] == 0.0
    comm = [p["communication_mb"] for p in GOLDEN["points"]]
    assert comm == sorted(comm)  # monotone in chip count
    for point in GOLDEN["points"]:
        assert point["latency_ms"] == pytest.approx(
            point["compute_ms"] + point["communication_ms"]
        )


def test_scaling_matches_golden_fast():
    assert_in_band(compute_points(FAST_CHIPS))


@pytest.mark.slow
def test_scaling_matches_golden_full():
    points = compute_points(ALL_CHIPS)
    assert_in_band(points)
    comm = [p.communication_mb for p in points]
    assert comm == sorted(comm)
    assert all(b > a for a, b in zip(comm, comm[1:]))  # strictly monotone


class TestCachePoisoning:
    """Every partition/link knob must land in the cache identity."""

    def plan_key(self, **overrides):
        mc = MultiChipConfig(**{"chips": 2, **overrides})
        return system_plan(
            "multichip",
            "gcn-cora",
            options=SystemOptions(noc_backend="analytical", multichip=mc),
        ).key

    def test_multichip_plan_keys_are_distinct(self):
        keys = {
            "base": self.plan_key(),
            "chips": self.plan_key(chips=4),
            "method": self.plan_key(method="bfs"),
            "seed": self.plan_key(seed=1),
            "bandwidth": self.plan_key(link_bandwidth_gbps=50.0),
            "latency": self.plan_key(link_latency_us=2.0),
        }
        assert len(set(keys.values())) == len(keys), keys

    def test_shard_fingerprint_varies_with_every_spec_field(self):
        config = resolve_accel_config("CPU iso-BW", 2.4)
        base = ShardSpec(chips=4, index=1, method="metis", seed=0)
        variants = (
            ShardSpec(chips=8, index=1, method="metis", seed=0),
            ShardSpec(chips=4, index=2, method="metis", seed=0),
            ShardSpec(chips=4, index=1, method="bfs", seed=0),
            ShardSpec(chips=4, index=1, method="metis", seed=1),
        )
        keys = {point_key("gcn-cora", config, shard=base)}
        for spec in variants:
            keys.add(point_key("gcn-cora", config, shard=spec))
        assert len(keys) == 1 + len(variants)

        doc = point_fingerprint("gcn-cora", config, shard=base)
        assert doc["shard"] == base.fingerprint()
        assert doc["system"] == "accel"

    def test_shard_keys_never_collide_with_whole_graph_points(self):
        config = resolve_accel_config("CPU iso-BW", 2.4)
        whole = point_fingerprint("gcn-cora", config)
        spec = ShardSpec(chips=2, index=0)
        sharded = point_fingerprint("gcn-cora", config, shard=spec)
        assert "shard" not in whole
        assert sharded["shard"] == spec.fingerprint()
