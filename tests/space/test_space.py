"""Tests for ConfigSpace composition, enumeration, and fingerprints."""

import random

import pytest

from repro.accel.config import AcceleratorConfig
from repro.errors import UnknownNameError
from repro.exp.cache import point_key
from repro.space import (
    get_default_space,
    mesh_columns,
    resolve_space,
    space_names,
)

#: Searchable values of the CPU iso-BW and GPU iso-BW rows.
CPU_ISO_BW_VALUES = {
    "tiles_per_row": 1, "mem_per_row": 1, "rows": 1,
    "bandwidth_gbps": 68.0, "clock_ghz": 2.4,
    "agg_alus": 16, "gpe_threads": 16,
}
GPU_ISO_BW_VALUES = dict(CPU_ISO_BW_VALUES, tiles_per_row=2, mem_per_row=2,
                         rows=4)


@pytest.fixture(scope="module")
def space():
    return get_default_space()


class TestMeshColumns:
    def test_single_memory_column_sits_on_the_right_edge(self):
        # The CPU iso-BW row: tile at x=0, memory at x=1.
        groups, mem_cols = mesh_columns(1, 1)
        assert groups == ((0,),)
        assert mem_cols == (1,)

    def test_two_memory_columns_split_across_the_edges(self):
        # The GPU iso-BW row: memory at x=0 and x=3, tiles between.
        groups, mem_cols = mesh_columns(2, 2)
        assert mem_cols == (0, 3)
        assert groups == ((1, 2),)

    def test_wide_mesh_groups_tiles_nearest_memory_first(self):
        # The GPU iso-FLOPS row: outer tile columns (1, 4) enumerate
        # before the inner ones (2, 3) — enumeration order is placement.
        groups, mem_cols = mesh_columns(4, 2)
        assert mem_cols == (0, 5)
        assert groups == ((1, 4), (2, 3))


class TestGridEnumeration:
    def test_grid_is_deterministic(self, space):
        first = [p.values for p in space.grid()]
        second = [p.values for p in space.grid()]
        assert first == second

    def test_grid_respects_constraints(self, space):
        for point in space.grid():
            values = point.value_map
            assert values["mem_per_row"] <= values["tiles_per_row"]

    def test_every_grid_point_materializes_a_valid_config(self, space):
        # AcceleratorConfig.__post_init__ re-validates geometry; a buggy
        # derivation would raise here instead of simulating garbage.
        count = 0
        for point in space.grid():
            config = point.config()
            assert isinstance(config, AcceleratorConfig)
            count += 1
        assert count == space.size > 1000

    def test_off_grid_value_rejected(self, space):
        values = dict(CPU_ISO_BW_VALUES)
        values["rows"] = 99
        with pytest.raises(ValueError, match="not a grid value"):
            space.point(values)

    def test_missing_and_unknown_parameters_rejected(self, space):
        values = dict(CPU_ISO_BW_VALUES)
        del values["rows"]
        with pytest.raises(ValueError, match="missing value"):
            space.point(values)
        values["rows"] = 1
        values["voltage"] = 1.1
        with pytest.raises(ValueError, match="no parameter"):
            space.point(values)

    def test_constraint_violation_rejected_by_name(self, space):
        values = dict(CPU_ISO_BW_VALUES)
        values["mem_per_row"] = 2  # > tiles_per_row = 1
        with pytest.raises(ValueError, match="mem-needs-client-tiles"):
            space.point(values)


class TestSamplingAndMutation:
    def test_sample_is_seeded(self, space):
        a = [space.sample(random.Random(3)).values for _ in range(4)]
        b = [space.sample(random.Random(3)).values for _ in range(4)]
        assert a == b

    def test_sample_satisfies_constraints(self, space):
        rng = random.Random(11)
        for _ in range(32):
            assert space.satisfies(space.sample(rng).value_map)

    def test_mutate_changes_at_most_one_parameter(self, space):
        rng = random.Random(5)
        point = space.point(GPU_ISO_BW_VALUES)
        for _ in range(32):
            child = space.mutate(point, rng)
            changed = [
                name for name, value in child.values
                if point.value_map[name] != value
            ]
            assert len(changed) <= 1
            assert space.satisfies(child.value_map)

    def test_mutate_is_seeded(self, space):
        point = space.point(GPU_ISO_BW_VALUES)
        a = space.mutate(point, random.Random(9)).values
        b = space.mutate(point, random.Random(9)).values
        assert a == b


class TestPointIdentity:
    def test_equal_values_mean_equal_points(self, space):
        values = CPU_ISO_BW_VALUES
        assert space.point(values) == space.point(dict(values))

    def test_anonymous_points_get_stable_content_names(self, space):
        values = dict(CPU_ISO_BW_VALUES)
        values["rows"] = 2
        name = space.point(values).config_name
        assert name.startswith("dse-")
        assert name == space.point(values).config_name

    def test_every_searchable_parameter_feeds_the_cache_key(self, space):
        """Poisoning regression: varying any single searchable parameter
        must change the materialized config's cache key — a collision
        would serve one design point another's report."""
        base_values = dict(GPU_ISO_BW_VALUES)
        base_key = point_key("gcn-cora", space.point(base_values).config())
        varied = {
            "tiles_per_row": 3, "mem_per_row": 1, "rows": 2,
            "bandwidth_gbps": 136.0, "clock_ghz": 1.2,
            "agg_alus": 32, "gpe_threads": 32,
        }
        assert set(varied) == set(space.param_names)
        for name, value in varied.items():
            values = dict(base_values)
            assert values[name] != value, name
            values[name] = value
            key = point_key("gcn-cora", space.point(values).config())
            assert key != base_key, f"{name} must invalidate the key"

    def test_shard_keys_inherit_config_identity(self, space):
        from repro.partition.core import ShardSpec

        spec = ShardSpec(chips=2, index=0)
        values = dict(CPU_ISO_BW_VALUES)
        a = point_key("gcn-cora", space.point(values).config(), shard=spec)
        values["bandwidth_gbps"] = 136.0
        b = point_key("gcn-cora", space.point(values).config(), shard=spec)
        assert a != b


class TestRegistry:
    def test_default_space_is_registered(self):
        assert "default" in space_names()
        assert resolve_space("default").name == "default"

    def test_unknown_space_lists_valid_names(self):
        with pytest.raises(UnknownNameError, match="default"):
            resolve_space("hyper")
