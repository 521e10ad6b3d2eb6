"""Differential identity: space-derived Table VI == the frozen literals.

The refactor's load-bearing guarantee.  The three configurations the
whole evaluation rests on are now *derived* — mesh geometry computed
from (tiles_per_row, mem_per_row, rows), not hand-listed — and every
consumer resolves them through :func:`repro.space.resolve_config`.
These tests prove the derivation changes nothing observable:

* field-for-field dataclass identity against the frozen literals;
* bit-identical cache keys (:func:`repro.exp.cache.point_key`), so no
  seed cache entry is ever orphaned or re-simulated.

Equal configurations simulate to equal reports, and
``tests/golden_digests.json`` pins those reports for every Table VI row.
"""

import dataclasses

import pytest

from repro.accel.config import CONFIGURATIONS, configuration_by_name
from repro.exp.cache import point_key
from repro.space import config_names, named_configs, resolve_config, table6_point

CONFIG_NAMES = tuple(c.name for c in CONFIGURATIONS)


class TestFieldIdentity:
    def test_same_names_same_order(self):
        assert config_names() == CONFIG_NAMES

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_dataclass_equality(self, name):
        assert resolve_config(name) == configuration_by_name(name)

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_every_field_recursively(self, name):
        derived = dataclasses.asdict(resolve_config(name))
        literal = dataclasses.asdict(configuration_by_name(name))
        assert derived == literal

    def test_named_configs_match_literals_pairwise(self):
        assert named_configs() == CONFIGURATIONS

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_space_point_round_trips_geometry(self, name):
        point = table6_point(name)
        literal = configuration_by_name(name)
        config = point.config()
        assert config.tile_coords == literal.tile_coords
        assert config.memory_coords == literal.memory_coords


class TestCacheKeyIdentity:
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    @pytest.mark.parametrize("bench", ("gcn-cora", "pgnn-dblp_1"))
    def test_point_keys_unchanged(self, bench, name):
        # The seed corpus of cache entries stays valid verbatim.
        assert point_key(bench, resolve_config(name)) == point_key(
            bench, configuration_by_name(name)
        )

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_clock_swept_keys_unchanged(self, name):
        assert point_key(
            "gcn-cora", resolve_config(name).with_clock(1.2)
        ) == point_key(
            "gcn-cora", configuration_by_name(name).with_clock(1.2)
        )
