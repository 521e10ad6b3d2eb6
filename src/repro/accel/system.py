"""Whole-accelerator assembly: tiles + memory nodes on a mesh."""

from __future__ import annotations

from repro.accel.config import AcceleratorConfig
from repro.accel.memory import MemoryController
from repro.accel.placement import Placement, RoundRobinPlacement
from repro.accel.tile import Tile
from repro.noc.backends import create_backend
from repro.noc.model import NocModel
from repro.noc.topology import Coord, Mesh
from repro.sim.clock import Clock
from repro.sim.kernel import Simulator


class Accelerator:
    """An instantiated Table VI configuration ready to simulate.

    Owns the event kernel, the NoC model, one :class:`Tile` per tile
    coordinate, and one :class:`MemoryController` per memory
    coordinate.  Vertices are spread across tiles (owner tile) and
    memory nodes (backing store) by the :class:`Placement` policy —
    by default the paper-style round-robin interleave, which is how the
    multi-tile configurations spread both compute and bandwidth.

    The interconnect is any :class:`~repro.noc.model.NocModel`: built by
    the :mod:`repro.noc.backends` registry from ``config.noc_backend``
    ("packet" by default), or injected directly via ``noc`` (tests and
    custom backends).
    """

    def __init__(
        self,
        config: AcceleratorConfig,
        placement: Placement | None = None,
        noc: NocModel | None = None,
    ) -> None:
        self.config = config
        self.sim = Simulator()
        self.clock = Clock(config.clock_ghz)
        mesh = Mesh(config.mesh_width, config.mesh_height)
        self.noc: NocModel = (
            noc if noc is not None
            else create_backend(config.noc_backend, mesh, config.noc)
        )
        self.tiles = [
            Tile(self.sim, coord, config.tile, self.clock)
            for coord in config.tile_coords
        ]
        self.memories = [
            MemoryController(self.sim, f"mem{coord}", config.memory)
            for coord in config.memory_coords
        ]
        self._mem_coords = list(config.memory_coords)
        self.placement = placement or RoundRobinPlacement(
            num_tiles=len(self.tiles), num_memories=len(self.memories)
        )

    # -- placement ----------------------------------------------------------

    def tile_of(self, vertex: int) -> Tile:
        """Owner tile of a vertex under the placement policy."""
        return self.tiles[self.placement.tile_index(vertex) % len(self.tiles)]

    def memory_of(self, vertex: int) -> tuple[MemoryController, Coord]:
        """Backing memory node of a vertex's data."""
        index = self.placement.memory_index(vertex) % len(self.memories)
        return self.memories[index], self._mem_coords[index]

    # -- transfers ------------------------------------------------------------

    def memory_read(
        self, vertex: int, size_bytes: int, start_ns: float, dest: Coord
    ) -> float:
        """Read ``size_bytes`` of a vertex's data into a tile.

        Models the asynchronous indirect request path: a header flit
        carries the request to the memory node, the controller services
        it, and the response is streamed to ``dest``.  Returns the time
        the last byte arrives.
        """
        controller, mem_coord = self.memory_of(vertex)
        request_arrival = self.noc.delivery_time(dest, mem_coord, 0, start_ns)
        data_ready = controller.request_scatter(1, size_bytes, request_arrival)
        return self.noc.delivery_time(mem_coord, dest, size_bytes, data_ready)

    def memory_write(
        self, vertex: int, size_bytes: int, start_ns: float, src: Coord
    ) -> float:
        """Write a result back to the vertex's memory node."""
        controller, mem_coord = self.memory_of(vertex)
        arrival = self.noc.delivery_time(src, mem_coord, size_bytes, start_ns)
        return controller.request_scatter(1, size_bytes, arrival, write=True)

    def gather_read(
        self, count: int, size_each_bytes: int, start_ns: float, dest: Coord
    ) -> float:
        """Read ``count`` scattered values (e.g. neighbour states) into a tile.

        Neighbour data is interleaved across memory nodes by vertex id, so
        the batch is split evenly over all controllers and streamed to
        ``dest`` in parallel; this is how the multi-tile configurations
        realize their aggregate bandwidth.  Returns when the last value
        arrives.
        """
        if count <= 0:
            return start_ns
        num = len(self.memories)
        base, extra = divmod(count, num)
        last_arrival = start_ns
        for index, controller in enumerate(self.memories):
            share = base + (1 if index < extra else 0)
            if share == 0:
                continue
            mem_coord = self._mem_coords[index]
            request_arrival = self.noc.delivery_time(
                dest, mem_coord, 0, start_ns
            )
            data_ready = controller.request_scatter(
                share, size_each_bytes, request_arrival
            )
            arrival = self.noc.delivery_time(
                mem_coord, dest, share * size_each_bytes, data_ready
            )
            last_arrival = max(last_arrival, arrival)
        return last_arrival

    # -- reporting --------------------------------------------------------------

    def total_dram_bytes(self) -> float:
        """DRAM traffic serviced across all memory nodes."""
        return sum(m.bytes_serviced() for m in self.memories)

    def mean_bandwidth_gbps(self, elapsed_ns: float) -> float:
        """Aggregate sustained DRAM bandwidth over a run."""
        if elapsed_ns <= 0:
            return 0.0
        return self.total_dram_bytes() / elapsed_ns

    def bandwidth_utilization(self, elapsed_ns: float) -> float:
        """Sustained bandwidth over peak (the Figure 10 left axis)."""
        peak = self.config.total_bandwidth_gbps
        return min(1.0, self.mean_bandwidth_gbps(elapsed_ns) / peak)

    def dna_utilization(self, elapsed_ns: float) -> float:
        """Mean DNA-array busy fraction (the Figure 10 right axis)."""
        if not self.tiles:
            return 0.0
        return sum(t.dna.utilization(elapsed_ns) for t in self.tiles) / len(
            self.tiles
        )

    def gpe_utilization(self, elapsed_ns: float) -> float:
        """Mean GPE busy fraction (diagnoses GPE-bound benchmarks)."""
        return sum(t.gpe.utilization(elapsed_ns) for t in self.tiles) / len(
            self.tiles
        )
