"""The default hardware parameter space and the one config resolver.

This module closes the closed world of
:data:`repro.accel.config.CONFIGURATIONS`: the three Table VI rows are
re-expressed as *named points* of :func:`default_space`, and
:func:`resolve_config` — the single source of truth every consumer
(CLI, eval drivers, execution systems, sweep grids) funnels through —
resolves a name to the space-derived configuration.

The derivation is proven bit-identical to the frozen seed literals by
``tests/space/test_table6_identity.py``: field-for-field dataclass
equality, unchanged :func:`repro.exp.cache.point_key` cache keys, and
field-identical simulation reports on the paper benchmarks.

Mesh geometry is *derived*, not hand-listed: memory columns sit on the
mesh edges (split left/right), tile columns fill the middle, and tiles
enumerate nearest-to-memory columns first — the placement Figure 9
depicts, generalized to any (tiles_per_row, mem_per_row, rows) the
constraints admit.  Every materialized point re-runs
``AcceleratorConfig.__post_init__`` validation, so a buggy derivation
fails loudly instead of simulating a malformed mesh.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.accel.config import (
    AcceleratorConfig,
    MemoryConfig,
    TileConfig,
)
from repro.noc.topology import Coord
from repro.space.params import Categorical, Constraint, Derived, IntRange
from repro.space.space import ConfigSpace, SpacePoint, UnknownPointError


def mesh_columns(
    tiles_per_row: int, mem_per_row: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(tile column groups, memory columns) of one mesh row.

    Memory columns split across the mesh edges — ``mem_per_row // 2`` on
    the left, the rest on the right (one memory node lands on the right,
    matching the CPU iso-BW row).  Tile columns are the remainder,
    grouped by distance to the nearest memory column, nearest group
    first: that reproduces the GPU iso-FLOPS outer-columns-first
    ordering that keeps each memory node's clients inside its own mesh
    row (vertex ``v`` lives on tile ``v % tiles`` and memory node
    ``v % mems``, so enumeration order *is* placement).
    """
    width = tiles_per_row + mem_per_row
    left = mem_per_row // 2
    right = mem_per_row - left
    mem_cols = tuple(range(left)) + tuple(range(width - right, width))
    tile_cols = tuple(x for x in range(width) if x not in mem_cols)

    def distance(x: int) -> int:
        return min(abs(x - m) for m in mem_cols)

    groups: dict[int, list[int]] = {}
    for x in tile_cols:
        groups.setdefault(distance(x), []).append(x)
    ordered = tuple(
        tuple(sorted(groups[d])) for d in sorted(groups)
    )
    return ordered, mem_cols


def _tile_coords(values: Mapping[str, Any]) -> tuple[Coord, ...]:
    groups, _ = mesh_columns(
        values["tiles_per_row"], values["mem_per_row"]
    )
    return tuple(
        (x, y)
        for group in groups
        for y in range(values["rows"])
        for x in group
    )


def _memory_coords(values: Mapping[str, Any]) -> tuple[Coord, ...]:
    _, mem_cols = mesh_columns(
        values["tiles_per_row"], values["mem_per_row"]
    )
    return tuple((x, y) for y in range(values["rows"]) for x in mem_cols)


def _build(values: Mapping[str, Any], name: str) -> AcceleratorConfig:
    """Materialize one point; tile/memory sub-configs keep their seed
    defaults for every knob the space does not search."""
    return AcceleratorConfig(
        name=name,
        mesh_width=values["mesh_width"],
        mesh_height=values["mesh_height"],
        tile_coords=values["tile_coords"],
        memory_coords=values["memory_coords"],
        tile=TileConfig(
            agg_alus=values["agg_alus"],
            gpe_threads=values["gpe_threads"],
        ),
        memory=MemoryConfig(bandwidth_gbps=values["bandwidth_gbps"]),
        clock_ghz=values["clock_ghz"],
    )


#: Searchable values of the three Table VI rows, paper order.  The
#: derived geometry reproduces the frozen literals exactly — see the
#: identity suite.
TABLE6_POINT_VALUES: dict[str, dict[str, Any]] = {
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


def default_space() -> ConfigSpace:
    """The default hardware search space (~2000 valid points).

    Searches the co-design axes the GNN-acceleration literature treats
    as central — mesh shape (tile and memory columns x rows), per-node
    memory bandwidth, tile clock, aggregator width, and GPE thread
    count — with the Table VI rows as named points.  The NoC backend is
    *not* a space axis: it selects a fidelity model of the same
    hardware, so it stays an argument or CLI option applied with
    ``with_noc_backend``, exactly like the frozen configurations.
    """
    return ConfigSpace(
        name="default",
        params=(
            IntRange("tiles_per_row", 1, 4),
            IntRange("mem_per_row", 1, 2),
            IntRange("rows", 1, 4),
            Categorical("bandwidth_gbps", (34.0, 68.0, 136.0)),
            Categorical("clock_ghz", (1.2, 2.4, 3.6)),
            Categorical("agg_alus", (8, 16, 32)),
            Categorical("gpe_threads", (8, 16, 32)),
        ),
        derived=(
            Derived("mesh_width",
                    lambda v: v["tiles_per_row"] + v["mem_per_row"]),
            Derived("mesh_height", lambda v: v["rows"]),
            Derived("tile_coords", _tile_coords),
            Derived("memory_coords", _memory_coords),
        ),
        constraints=(
            # A memory column needs at least one client tile column:
            # more memory than tile columns starves the mesh of compute
            # and breaks the row-local placement the geometry targets.
            Constraint(
                "mem-needs-client-tiles",
                lambda v: v["mem_per_row"] <= v["tiles_per_row"],
            ),
        ),
        build=_build,
        named_values=TABLE6_POINT_VALUES,
    )


#: The process-wide default space instance (spaces are stateless; one
#: instance keeps named-point identity stable).
_DEFAULT_SPACE: ConfigSpace | None = None

#: Named-point configs, materialized once, on the default NoC backend
#: like the frozen literals.
_NAMED_CONFIGS: dict[str, AcceleratorConfig] | None = None


def get_default_space() -> ConfigSpace:
    global _DEFAULT_SPACE
    if _DEFAULT_SPACE is None:
        _DEFAULT_SPACE = default_space()
    return _DEFAULT_SPACE


def _named_configs() -> dict[str, AcceleratorConfig]:
    global _NAMED_CONFIGS
    if _NAMED_CONFIGS is None:
        space = get_default_space()
        _NAMED_CONFIGS = {
            name: space.named_point(name).config()
            for name in space.point_names()
        }
    return _NAMED_CONFIGS


def config_names() -> tuple[str, ...]:
    """Every resolvable configuration name, paper order."""
    return tuple(_named_configs())


def named_configs() -> tuple[AcceleratorConfig, ...]:
    """The Table VI configurations, derived from the default space."""
    return tuple(_named_configs().values())


def resolve_config(name: str) -> AcceleratorConfig:
    """The single source of truth for configuration-name resolution.

    Resolves ``name`` through the default space's named points; unknown
    names raise :class:`~repro.space.space.UnknownPointError` (a
    ``KeyError``) listing every valid name — the same contract the
    benchmark, system, and backend registries honour, so the CLI's
    exit-2 paths treat all of them uniformly.
    """
    configs = _named_configs()
    if name not in configs:
        raise UnknownPointError(name, tuple(configs))
    return configs[name]


def table6_point(name: str) -> SpacePoint:
    """The named space point behind a Table VI row."""
    return get_default_space().named_point(name)
