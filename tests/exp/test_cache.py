"""Property tests for the content-hash cache keys and the on-disk store.

The contract under test (docs/architecture.md, "Experiment harness"):
a key changes when — and only when — an input that could change the
simulation's answer changes.  Every ``AcceleratorConfig`` field (and the
swept clock, and the benchmark) invalidates; keyword order, environment
variables, and on-disk corruption never produce a wrong answer.
"""

import dataclasses
import json

import pytest

from repro.accel.config import (
    CPU_ISO_BW,
    GPU_ISO_BW,
    AcceleratorConfig,
    MemoryConfig,
    TileConfig,
)
from repro.exp.cache import (
    SCHEMA_VERSION,
    ResultCache,
    point_key,
)
from repro.runtime.report import LayerReport, SimulationReport
from repro.runtime.serialize import report_to_dict


def sample_report() -> SimulationReport:
    return SimulationReport(
        benchmark="GCN",
        config_name="CPU iso-BW",
        clock_ghz=2.4,
        layers=[
            LayerReport(name="project", start_ns=0.0, end_ns=1250.5,
                        num_tasks=2708),
            LayerReport(name="propagate", start_ns=1250.5, end_ns=4100.25,
                        num_tasks=2708),
        ],
        dram_bytes=1.5e8,
        dram_wasted_bytes=2.0e7,
        mean_bandwidth_gbps=33.3,
        bandwidth_utilization=0.49,
        dna_utilization=0.18,
        gpe_utilization=0.41,
        agg_utilization=0.07,
        noc_peak_link_utilization=0.22,
    )


class TestPointKey:
    #: One single-field variation per AcceleratorConfig field.  The
    #: coverage assertion below forces this table to grow with the
    #: dataclass, so a new field can never silently share cache entries.
    VARIATIONS = {
        "name": lambda c: dataclasses.replace(c, name=c.name + " (copy)"),
        "mesh_width": lambda c: dataclasses.replace(
            c, mesh_width=c.mesh_width + 1
        ),
        "mesh_height": lambda c: dataclasses.replace(
            c, mesh_height=c.mesh_height + 1
        ),
        "tile_coords": lambda c: dataclasses.replace(
            c, tile_coords=tuple(reversed(c.tile_coords))
        ),
        "memory_coords": lambda c: dataclasses.replace(
            c, memory_coords=tuple(reversed(c.memory_coords))
        ),
        "tile": lambda c: dataclasses.replace(
            c, tile=dataclasses.replace(c.tile, agg_alus=c.tile.agg_alus * 2)
        ),
        "memory": lambda c: dataclasses.replace(
            c,
            memory=dataclasses.replace(
                c.memory, bandwidth_gbps=c.memory.bandwidth_gbps / 2
            ),
        ),
        "noc": lambda c: dataclasses.replace(
            c, noc=dataclasses.replace(c.noc, num_vcs=c.noc.num_vcs + 1)
        ),
        # Backends answer delivery times at different fidelities, so two
        # backends sharing a cache entry would be cache poisoning.
        "noc_backend": lambda c: c.with_noc_backend(
            "analytical" if c.noc_backend != "analytical" else "packet"
        ),
        "clock_ghz": lambda c: c.with_clock(c.clock_ghz / 2),
    }

    #: Fields deliberately excluded from the fingerprint: execution
    #: budgets bound *termination*, never results, so tightening a
    #: watchdog must still hit the cache (config_fingerprint strips it).
    EXCLUDED = {"watchdog"}

    def test_variations_cover_every_field(self):
        field_names = {f.name for f in dataclasses.fields(AcceleratorConfig)}
        assert set(self.VARIATIONS) | self.EXCLUDED == field_names, (
            "AcceleratorConfig grew a field the key test does not vary — "
            "add a variation (and bump SCHEMA_VERSION if the new field "
            "changes simulation results), or list it in EXCLUDED if it "
            "provably cannot change results"
        )

    def test_watchdog_budgets_do_not_invalidate(self):
        from repro.sim.watchdog import WatchdogConfig

        tightened = dataclasses.replace(
            CPU_ISO_BW,
            watchdog=WatchdogConfig(max_events=1000, stall_events=10),
        )
        assert point_key("gcn-cora", tightened) == point_key(
            "gcn-cora", CPU_ISO_BW
        )

    @pytest.mark.parametrize("field", sorted(VARIATIONS))
    def test_changing_any_config_field_invalidates(self, field):
        base = GPU_ISO_BW  # multi-tile, so coordinate reorders are legal
        varied = self.VARIATIONS[field](base)
        assert getattr(varied, field) != getattr(base, field)
        assert point_key("gcn-cora", varied) != point_key("gcn-cora", base)

    def test_space_derived_configs_key_by_contents(self):
        # Space-derived points (repro.space) enter the cache by the same
        # contents-based fingerprint as the literals: the named Table VI
        # points reproduce the historical keys bit-for-bit, while an
        # anonymous DSE point with the same searchable values carries a
        # content-derived dse-... name and therefore its own entry —
        # anonymous search results can never shadow a named row's report.
        from repro.space import get_default_space, resolve_config

        space = get_default_space()
        assert point_key("gcn-cora", resolve_config("GPU iso-BW")) == (
            point_key("gcn-cora", GPU_ISO_BW)
        )
        anonymous = space.point(space.named_values["GPU iso-BW"])
        assert anonymous.config_name.startswith("dse-")
        assert point_key("gcn-cora", anonymous.config()) != point_key(
            "gcn-cora", GPU_ISO_BW
        )

    def test_clock_sweep_points_are_distinct(self):
        keys = {
            point_key("gcn-cora", CPU_ISO_BW.with_clock(clock))
            for clock in (0.6, 1.2, 2.4)
        }
        assert len(keys) == 3

    def test_nested_gpe_cost_change_invalidates(self):
        costs = dataclasses.replace(
            CPU_ISO_BW.tile.gpe_costs, instructions_per_visit=131
        )
        varied = dataclasses.replace(
            CPU_ISO_BW,
            tile=dataclasses.replace(CPU_ISO_BW.tile, gpe_costs=costs),
        )
        assert point_key("pgnn-dblp_1", varied) != point_key(
            "pgnn-dblp_1", CPU_ISO_BW
        )

    def test_benchmark_key_invalidates(self):
        assert point_key("gcn-cora", CPU_ISO_BW) != point_key(
            "gcn-citeseer", CPU_ISO_BW
        )

    def test_kwarg_order_is_irrelevant(self):
        a = AcceleratorConfig(
            name="pair",
            mesh_width=2,
            mesh_height=1,
            tile_coords=((0, 0),),
            memory_coords=((1, 0),),
            tile=TileConfig(),
            memory=MemoryConfig(),
            clock_ghz=2.4,
        )
        b = AcceleratorConfig(
            clock_ghz=2.4,
            memory=MemoryConfig(),
            tile=TileConfig(),
            memory_coords=((1, 0),),
            tile_coords=((0, 0),),
            mesh_height=1,
            mesh_width=2,
            name="pair",
        )
        assert point_key("gcn-cora", a) == point_key("gcn-cora", b)

    def test_unrelated_env_change_is_irrelevant(self, monkeypatch):
        before = point_key("gcn-cora", CPU_ISO_BW)
        monkeypatch.setenv("REPRO_TOTALLY_UNRELATED", "42")
        monkeypatch.setenv("PYTHONHASHSEED", "7")
        assert point_key("gcn-cora", CPU_ISO_BW) == before

    def test_equal_configs_share_a_key_whatever_the_instance(self):
        clone = dataclasses.replace(CPU_ISO_BW)
        assert clone is not CPU_ISO_BW
        assert point_key("gcn-cora", clone) == point_key(
            "gcn-cora", CPU_ISO_BW
        )

    def test_accelerator_keys_are_pinned(self):
        """Literal keys of three points: a change to the key document
        that moved them would orphan every existing cache entry."""
        from repro.accel.config import GPU_ISO_FLOPS
        from repro.partition.core import ShardSpec

        cpu = CPU_ISO_BW.with_clock(2.4)
        gpu = GPU_ISO_FLOPS.with_clock(1.2).with_noc_backend("analytical")
        shard = ShardSpec(chips=2, index=1)
        assert (shard.method, shard.seed) == ("metis", 0)
        assert point_key("gcn-cora", cpu) == (
            "6f18edaa3c6f9da7a880c92716cfd0596eb1a8e53a2af7b04b36fd7d2ef7e469"
        )
        assert point_key("gcn-cora", cpu, shard) == (
            "be8f56daca97d311b162d8633dd876c397a53eeb9ad065533fe139ebc31ff61f"
        )
        assert point_key("pgnn-dblp_1", gpu) == (
            "84aaedbe1579caafab049e750e8a61b087476c5f5e9f7e3a345d5baf7c434b28"
        )


class TestResultCache:
    @pytest.fixture
    def cache(self, tmp_path):
        return ResultCache(tmp_path)

    @pytest.fixture
    def key(self):
        return point_key("gcn-cora", CPU_ISO_BW)

    def test_round_trip_equality(self, cache, key):
        report = sample_report()
        cache.put(key, report)
        loaded = cache.get(key)
        assert report_to_dict(loaded) == report_to_dict(report)
        assert loaded.latency_ms == report.latency_ms

    def test_store_and_workers_share_one_encoding(self, cache, key):
        """A sweep worker returns the entry the store writes; a
        simulation report's entry stays untagged, as it always was."""
        from repro.exp.cache import decode_report
        from repro.exp.runner import Point, _payload

        point = Point("gcn-cora", CPU_ISO_BW, 2.4)
        shipped = _payload(point, None)
        assert shipped["ok"] and "kind" not in shipped
        report = decode_report(shipped)
        cache.put(key, report)
        entry = json.loads(cache.path_for(key).read_text())
        assert entry == {"schema": SCHEMA_VERSION, "key": key,
                         "report": shipped["report"]}
        assert report_to_dict(cache.get(key)) == shipped["report"]

    def test_missing_key_is_a_miss(self, cache):
        assert cache.get("0" * 64) is None

    def test_contains_and_len(self, cache, key):
        assert key not in cache and len(cache) == 0
        cache.put(key, sample_report())
        assert key in cache and len(cache) == 1

    def test_garbage_entry_is_discarded_not_raised(self, cache, key):
        cache.results_dir.mkdir(parents=True)
        cache.path_for(key).write_text("}{ not json at all \x00")
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()

    def test_truncated_entry_is_discarded(self, cache, key):
        cache.put(key, sample_report())
        path = cache.path_for(key)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.get(key) is None
        assert not path.exists()

    def test_missing_report_fields_are_discarded(self, cache, key):
        cache.results_dir.mkdir(parents=True)
        cache.path_for(key).write_text(json.dumps({
            "schema": SCHEMA_VERSION,
            "key": key,
            "report": {"benchmark": "GCN"},
        }))
        assert cache.get(key) is None

    def test_schema_mismatch_is_discarded(self, cache, key):
        cache.put(key, sample_report())
        path = cache.path_for(key)
        payload = json.loads(path.read_text())
        payload["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None

    def test_entry_filed_under_wrong_key_is_discarded(self, cache, key):
        cache.put(key, sample_report())
        other = "f" * 64
        cache.path_for(key).rename(cache.path_for(other))
        assert cache.get(other) is None

    def test_writes_are_atomic(self, cache, key):
        cache.put(key, sample_report())
        leftovers = [
            p for p in cache.results_dir.iterdir()
            if p.name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_clear_removes_everything(self, cache, key):
        cache.put(key, sample_report())
        cache.put("a" * 64, sample_report())
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get(key) is None

    def test_overwrite_replaces(self, cache, key):
        cache.put(key, sample_report())
        updated = dataclasses.replace(sample_report(), dram_bytes=9.9e9)
        cache.put(key, updated)
        assert cache.get(key).dram_bytes == 9.9e9
