"""Vertex placement policies (extension).

The paper interleaves vertices across tiles and memory nodes; how that
mapping is chosen decides both load balance (power-law graphs have hubs)
and NoC distance (a vertex whose backing memory node sits next to its
owner tile streams features over one link).  This module makes the policy
pluggable on :class:`~repro.accel.system.Accelerator`:

* :class:`RoundRobinPlacement` — the paper-style modulo interleave; the
  ``memory_offset`` knob deliberately misaligns tiles and memory nodes to
  quantify what placement-blind allocation costs (the placement
  ablation, ``tests/accel/test_placement.py``).
* :class:`RangePlacement` — contiguous vertex blocks per tile; balanced
  in vertex count but not in edge count on skewed graphs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass


class Placement(ABC):
    """Maps vertex ids to tile and memory-node indexes."""

    @abstractmethod
    def tile_index(self, vertex: int) -> int:
        """Owner tile of ``vertex``."""

    @abstractmethod
    def memory_index(self, vertex: int) -> int:
        """Memory node backing ``vertex``'s data."""


@dataclass(frozen=True)
class RoundRobinPlacement(Placement):
    """Modulo interleave across tiles and memory nodes.

    With ``memory_offset=0`` (default) vertex ``v`` maps to tile
    ``v % tiles`` and memory ``v % memories`` — on the Table VI meshes
    this puts every vertex's data on the node adjacent to its owner tile.
    A nonzero offset rotates the memory mapping to create deliberate
    tile/memory misalignment.
    """

    num_tiles: int
    num_memories: int
    memory_offset: int = 0

    def __post_init__(self) -> None:
        if self.num_tiles < 1 or self.num_memories < 1:
            raise ValueError("placement needs at least one tile and memory")

    def tile_index(self, vertex: int) -> int:
        return vertex % self.num_tiles

    def memory_index(self, vertex: int) -> int:
        return (vertex + self.memory_offset) % self.num_memories


@dataclass(frozen=True)
class RangePlacement(Placement):
    """Contiguous vertex blocks per tile (and per memory node).

    Block ``i`` of ``ceil(V / tiles)`` vertices lives on tile ``i``; the
    memory node follows the tile.  Balanced in vertices, not in edges.
    """

    num_vertices: int
    num_tiles: int
    num_memories: int

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise ValueError("placement needs at least one vertex")
        if self.num_tiles < 1 or self.num_memories < 1:
            raise ValueError("placement needs at least one tile and memory")

    @property
    def block_size(self) -> int:
        return -(-self.num_vertices // self.num_tiles)

    def tile_index(self, vertex: int) -> int:
        index = min(vertex // self.block_size, self.num_tiles - 1)
        return index

    def memory_index(self, vertex: int) -> int:
        return self.tile_index(vertex) % self.num_memories
