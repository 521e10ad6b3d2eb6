"""Differential identity: the default space contains the Table VI rows.

Table VI is defined once, as the literals in :mod:`repro.accel.config`.
The default parameter space derives mesh geometry from
(tiles_per_row, mem_per_row, rows) instead of listing it, and these
tests pin the property that derivation must keep: the space point with
a row's searchable values builds that row field for field, apart from
its ``dse-`` name, so a search that lands on a paper design simulates
exactly that design:

* field-for-field dataclass identity against the literals;
* equal cache keys (:func:`repro.exp.cache.point_key`) once the name
  matches, so the point is served the row's simulation.
"""

import dataclasses

import pytest

from repro.accel.config import CONFIGURATIONS, AcceleratorConfig, resolve_config
from repro.exp.cache import point_key
from repro.space import get_default_space

#: Searchable values of each Table VI row, paper order.
ROW_VALUES = {
    "CPU iso-BW": {
        "tiles_per_row": 1, "mem_per_row": 1, "rows": 1,
        "bandwidth_gbps": 68.0, "clock_ghz": 2.4,
        "agg_alus": 16, "gpe_threads": 16,
    },
    "GPU iso-BW": {
        "tiles_per_row": 2, "mem_per_row": 2, "rows": 4,
        "bandwidth_gbps": 68.0, "clock_ghz": 2.4,
        "agg_alus": 16, "gpe_threads": 16,
    },
    "GPU iso-FLOPS": {
        "tiles_per_row": 4, "mem_per_row": 2, "rows": 4,
        "bandwidth_gbps": 68.0, "clock_ghz": 2.4,
        "agg_alus": 16, "gpe_threads": 16,
    },
}

CONFIG_NAMES = tuple(c.name for c in CONFIGURATIONS)


def space_config(name: str, **overrides) -> AcceleratorConfig:
    """The default space's point for row ``name``, renamed to the row."""
    point = get_default_space().point({**ROW_VALUES[name], **overrides})
    return dataclasses.replace(point.config(), name=name)


class TestFieldIdentity:
    def test_same_names_same_order(self):
        # Every Table VI literal is covered, in paper order.
        assert tuple(ROW_VALUES) == CONFIG_NAMES

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_dataclass_equality(self, name):
        assert space_config(name) == resolve_config(name)

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_every_field_recursively(self, name):
        point = get_default_space().point(ROW_VALUES[name])
        derived = dataclasses.asdict(point.config())
        literal = dataclasses.asdict(resolve_config(name))
        assert derived.pop("name") == point.config_name
        literal.pop("name")
        assert derived == literal

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_space_point_round_trips_geometry(self, name):
        config = space_config(name)
        literal = resolve_config(name)
        assert config.tile_coords == literal.tile_coords
        assert config.memory_coords == literal.memory_coords


class TestCacheKeyIdentity:
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    @pytest.mark.parametrize("bench", ("gcn-cora", "pgnn-dblp_1"))
    def test_point_keys_unchanged(self, bench, name):
        assert point_key(bench, space_config(name)) == point_key(
            bench, resolve_config(name)
        )

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_clock_swept_keys_unchanged(self, name):
        # The space's clock axis lands on the row's with_clock sweep.
        assert point_key(
            "gcn-cora", space_config(name, clock_ghz=1.2)
        ) == point_key(
            "gcn-cora", resolve_config(name).with_clock(1.2)
        )
