"""The default hardware parameter space.

The three Table VI rows of :data:`repro.accel.config.CONFIGURATIONS`
are ordinary points of :func:`default_space`: a search that lands on
one builds that row field for field, apart from its ``dse-`` name, so
it simulates exactly that design (``tests/space/test_table6_identity.py``).

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
from repro.space.space import ConfigSpace


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


def default_space() -> ConfigSpace:
    """The default hardware search space (~2000 valid points).

    Searches the co-design axes the GNN-acceleration literature treats
    as central — mesh shape (tile and memory columns x rows), per-node
    memory bandwidth, tile clock, aggregator width, and GPE thread
    count — with the Table VI rows among its points.  The NoC backend is
    *not* a space axis: it selects a fidelity model of the same
    hardware, so it stays an argument or CLI option applied with
    ``with_noc_backend``, exactly like the Table VI configurations.
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
    )


#: The process-wide default space instance (spaces are stateless).
_DEFAULT_SPACE: ConfigSpace | None = None


def get_default_space() -> ConfigSpace:
    global _DEFAULT_SPACE
    if _DEFAULT_SPACE is None:
        _DEFAULT_SPACE = default_space()
    return _DEFAULT_SPACE
