"""Tests for ConfigSpace composition, enumeration, and fingerprints."""

import random

import pytest

from repro.accel.config import AcceleratorConfig
from repro.errors import UnknownNameError
from repro.exp.cache import config_fingerprint, content_key, point_key
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


class TestPinnedProposals:
    """Literal digests of every proposal the space can make.

    The search drivers only read :meth:`ConfigSpace.grid`,
    :meth:`~ConfigSpace.sample` and :meth:`~ConfigSpace.mutate`, so
    these four sequences fix every point ``repro dse`` proposes, its
    name and its materialized configuration.  Each digest is
    :func:`repro.exp.cache.content_key` of the listed document; a
    refactor of the space must leave all four unchanged.
    """

    @pytest.fixture(scope="class")
    def grid(self, space):
        return list(space.grid())

    def test_grid_order_and_size(self, space, grid):
        assert space.size == len(grid) == 2268
        document = {"grid": [p.values for p in grid], "size": space.size}
        assert content_key(document) == (
            "c317f9cb23dd7e5d2823b4007b8ab185ac20df4871f370bdbf9bc87cfe377ca8"
        )

    def test_every_materialized_config(self, grid):
        document = {"configs": [config_fingerprint(p.config()) for p in grid]}
        assert content_key(document) == (
            "5c81ec9a4fbf363fcc640f49b48877941f02385b4d82b129640af03c1376d6b7"
        )

    def test_seeded_samples(self, space):
        samples = {}
        for seed in range(40):
            rng = random.Random(seed)
            samples[str(seed)] = [space.sample(rng).values for _ in range(20)]
        assert content_key({"samples": samples}) == (
            "f02f71900aaefd8f02f371b6f2bb245dcffc156ae5f5039c555175a3ae667fca"
        )

    def test_mutation_walks(self, space, grid):
        # 25 chained mutations from every 40th grid point, each walk
        # seeded by its start index.
        walks = {}
        for index in range(0, len(grid), 40):
            rng = random.Random(index)
            point = grid[index]
            walk = []
            for _ in range(25):
                point = space.mutate(point, rng)
                walk.append(point.values)
            walks[str(index)] = walk
        assert len(walks) == 57
        assert content_key({"walks": walks}) == (
            "097bc3a74c4a7648a929c3c6982e82c72c3470fe9d2df64f0b2608e7192fa200"
        )


class TestRegistry:
    def test_default_space_is_registered(self):
        assert "default" in space_names()
        assert resolve_space("default").name == "default"

    def test_unknown_space_lists_valid_names(self):
        with pytest.raises(UnknownNameError, match="default"):
            resolve_space("hyper")
