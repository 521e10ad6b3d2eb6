"""Tests for ConfigSpace composition, enumeration, and fingerprints."""

import random

import pytest

from repro.accel.config import AcceleratorConfig
from repro.exp.cache import point_key
from repro.space import (
    UnknownPointError,
    UnknownSpaceError,
    get_default_space,
    mesh_columns,
    resolve_space,
    space_names,
)


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
        values = dict(space.named_values["CPU iso-BW"])
        values["rows"] = 99
        with pytest.raises(ValueError, match="not a grid value"):
            space.point(values)

    def test_missing_and_unknown_parameters_rejected(self, space):
        values = dict(space.named_values["CPU iso-BW"])
        del values["rows"]
        with pytest.raises(ValueError, match="missing value"):
            space.point(values)
        values["rows"] = 1
        values["voltage"] = 1.1
        with pytest.raises(ValueError, match="no parameter"):
            space.point(values)

    def test_constraint_violation_rejected_by_name(self, space):
        values = dict(space.named_values["CPU iso-BW"])
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
        point = space.named_point("GPU iso-BW")
        for _ in range(32):
            child = space.mutate(point, rng)
            changed = [
                name for name, value in child.values
                if point.value_map[name] != value
            ]
            assert len(changed) <= 1
            assert space.satisfies(child.value_map)

    def test_mutate_is_seeded(self, space):
        point = space.named_point("GPU iso-BW")
        a = space.mutate(point, random.Random(9)).values
        b = space.mutate(point, random.Random(9)).values
        assert a == b


class TestPointIdentity:
    def test_equal_values_mean_equal_points(self, space):
        values = space.named_values["CPU iso-BW"]
        assert space.point(values) == space.point(dict(values))

    def test_anonymous_points_get_stable_content_names(self, space):
        values = dict(space.named_values["CPU iso-BW"])
        values["rows"] = 2
        name = space.point(values).config_name
        assert name.startswith("dse-")
        assert name == space.point(values).config_name

    def test_every_searchable_parameter_feeds_the_cache_key(self, space):
        """Poisoning regression: varying any single searchable parameter
        must change the materialized config's cache key — a collision
        would serve one design point another's report."""
        base_values = dict(space.named_values["GPU iso-BW"])
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
        values = dict(space.named_values["CPU iso-BW"])
        a = point_key("gcn-cora", space.point(values).config(), shard=spec)
        values["bandwidth_gbps"] = 136.0
        b = point_key("gcn-cora", space.point(values).config(), shard=spec)
        assert a != b


class TestRegistry:
    def test_default_space_is_registered(self):
        assert "default" in space_names()
        assert resolve_space("default").name == "default"

    def test_unknown_space_lists_valid_names(self):
        with pytest.raises(UnknownSpaceError, match="default"):
            resolve_space("hyper")

    def test_unknown_named_point_lists_valid_names(self, space):
        with pytest.raises(UnknownPointError, match="CPU iso-BW"):
            space.named_point("TPU iso-BW")
