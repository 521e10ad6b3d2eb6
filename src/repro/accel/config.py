"""Accelerator configurations (paper Tables I, IV, VI and Figure 9).

The three Table VI literals below are the frozen identity reference.
Name resolution now lives in :mod:`repro.space`: every consumer funnels
through :func:`repro.space.resolve_config`, which derives the same
three configurations as named points of the default typed parameter
space (proven field- and cache-key-identical by the identity suite).
:func:`configuration_by_name` remains for the literals themselves.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.dataflow.spatial import EYERISS_CONFIG, SpatialArrayConfig
from repro.noc.backends import DEFAULT_BACKEND, validate_backend
from repro.noc.config import NOC_CONFIG, NocConfig
from repro.noc.topology import Coord
from repro.sim.watchdog import WatchdogConfig


@dataclass(frozen=True)
class GpeCostModel:
    """Instruction budgets of the GPE software runtime.

    The paper models the GPE as an event-driven single-threaded core where
    "certain program steps require a certain latency" (Section V) but does
    not publish the per-step budgets, so these defaults were calibrated
    once against the Section VI observations — PGNN lands ~12% *slower*
    than the CPU baseline at 2.4 GHz because the runtime spends
    ``instructions_per_visit`` cycles sequencing every dependent traversal
    step, and the GCN benchmarks land at the Figure 10 bandwidth
    utilizations because ``instructions_per_destination`` cycles are spent
    filling each DNQ destination entry.  See EXPERIMENTS.md.
    """

    instructions_per_vertex: int = 16  # dequeue, bookkeeping, re-enqueue
    instructions_per_destination: int = 15  # fill one DNQ/AGG destination
    instructions_per_load: int = 6  # compose one async memory request
    instructions_per_visit: int = 130  # sequence one dependent traversal step
    instructions_per_alloc: int = 8  # allocation-bus transaction
    context_switch_cycles: int = 1  # Section IV: single-cycle switch

    def __post_init__(self) -> None:
        for name in (
            "instructions_per_vertex",
            "instructions_per_destination",
            "instructions_per_load",
            "instructions_per_visit",
            "instructions_per_alloc",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")


@dataclass(frozen=True)
class TileConfig:
    """One GNN accelerator tile (Figure 3)."""

    dna: SpatialArrayConfig = EYERISS_CONFIG
    agg_alus: int = 16
    agg_data_bytes: int = 62 * 1024
    agg_control_bytes: int = 2 * 1024
    agg_metadata_bytes: int = 16  # per-aggregation control record
    dnq_data_bytes: int = 62 * 1024
    dnq_dest_bytes: int = 2 * 1024
    dnq_idle_switch_cycles: int = 16  # lazy virtual-queue switching
    gpe_threads: int = 16
    gpe_costs: GpeCostModel = field(default_factory=GpeCostModel)
    flit_buffer_bytes: int = 2 * 1024

    def __post_init__(self) -> None:
        if self.agg_alus < 1:
            raise ValueError("aggregator needs at least one ALU")
        if self.gpe_threads < 1:
            raise ValueError("GPE needs at least one software thread")

    @property
    def alus(self) -> int:
        """ALU count as Table VI reports it: DNA PEs plus AGG ALUs."""
        return self.dna.num_pes + self.agg_alus

    def max_aggregations(self, width_values: int) -> int:
        """In-flight aggregation limit for ``width_values``-wide entries.

        Bounded by both the data scratchpad (entry payload) and the
        control scratchpad (per-aggregation metadata).
        """
        if width_values < 1:
            raise ValueError("aggregation width must be positive")
        data_limit = self.agg_data_bytes // (width_values * 4)
        control_limit = self.agg_control_bytes // self.agg_metadata_bytes
        return max(1, min(data_limit, control_limit))

    def max_dnq_entries(self, entry_bytes: int) -> int:
        """DNQ slots available for ``entry_bytes``-sized staged inputs."""
        if entry_bytes < 1:
            raise ValueError("DNQ entry size must be positive")
        return max(1, self.dnq_data_bytes // entry_bytes)


@dataclass(frozen=True)
class MemoryConfig:
    """Bandwidth-latency memory controller model (Section V)."""

    bandwidth_gbps: float = 68.0  # ~4 channels of DDR3-2400
    latency_ns: float = 20.0
    queue_depth: int = 32
    access_granularity_bytes: int = 64

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0 or self.latency_ns < 0:
            raise ValueError("invalid memory timing")
        if self.queue_depth < 1 or self.access_granularity_bytes < 1:
            raise ValueError("invalid memory queue configuration")


@dataclass(frozen=True)
class AcceleratorConfig:
    """A full accelerator: tiles and memory nodes on a mesh (Figure 9)."""

    name: str
    mesh_width: int
    mesh_height: int
    tile_coords: tuple[Coord, ...]
    memory_coords: tuple[Coord, ...]
    tile: TileConfig = field(default_factory=TileConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    # The NoC runs at a fixed 2.4 GHz regardless of the tile-clock sweep:
    # Section VI-B compares 2.4 vs 1.2 GHz tiles with "identical NoC and
    # memory bandwidth".  At 2.4 GHz a 64B link moves 153.6 GBps, so one
    # mesh link comfortably carries a 68 GBps memory channel.
    noc: NocConfig = NocConfig(clock_ghz=2.4)
    # Which repro.noc.backends model resolves NoC delivery times:
    # "packet" (default), "flit", or "analytical".  The result-cache
    # fingerprint hashes it, so runs under different backends never
    # share cache entries.
    noc_backend: str = DEFAULT_BACKEND
    clock_ghz: float = 2.4
    # Execution budgets for runs of this configuration.  Budgets bound
    # *termination*, never results: a run either completes (identically,
    # watchdog or not) or raises a diagnosable failure — which is why
    # the result cache excludes this field from its content hash.
    watchdog: WatchdogConfig = field(default_factory=WatchdogConfig)

    def __post_init__(self) -> None:
        if not self.tile_coords or not self.memory_coords:
            raise ValueError("need at least one tile and one memory node")
        occupied = list(self.tile_coords) + list(self.memory_coords)
        if len(set(occupied)) != len(occupied):
            raise ValueError("tile/memory coordinates overlap")
        for x, y in occupied:
            if not (0 <= x < self.mesh_width and 0 <= y < self.mesh_height):
                raise ValueError(f"coordinate ({x},{y}) outside mesh")
        validate_backend(self.noc_backend)

    @property
    def num_tiles(self) -> int:
        return len(self.tile_coords)

    @property
    def num_memory_nodes(self) -> int:
        return len(self.memory_coords)

    @property
    def total_alus(self) -> int:
        """Table VI "ALUs" column."""
        return self.num_tiles * self.tile.alus

    @property
    def total_bandwidth_gbps(self) -> float:
        """Table VI "Mem. BW" column."""
        return self.num_memory_nodes * self.memory.bandwidth_gbps

    def with_clock(self, clock_ghz: float) -> "AcceleratorConfig":
        """The same configuration at a different tile clock."""
        return dataclasses.replace(self, clock_ghz=clock_ghz)

    def with_noc_backend(self, noc_backend: str) -> "AcceleratorConfig":
        """The same configuration on a different NoC backend.

        Backend names are validated on construction, so an unknown name
        raises :class:`repro.noc.backends.UnknownBackendError` listing
        the registered backends.
        """
        return dataclasses.replace(self, noc_backend=noc_backend)


#: Table VI row 1: one tile and one memory node, 68 GBps (CPU-matched).
CPU_ISO_BW = AcceleratorConfig(
    name="CPU iso-BW",
    mesh_width=2,
    mesh_height=1,
    tile_coords=((0, 0),),
    memory_coords=((1, 0),),
)

#: Table VI row 2: 8 tiles, 8 memory nodes, 544 GBps (GPU-matched BW).
GPU_ISO_BW = AcceleratorConfig(
    name="GPU iso-BW",
    mesh_width=4,
    mesh_height=4,
    tile_coords=tuple((x, y) for y in range(4) for x in (1, 2)),
    memory_coords=tuple((x, y) for y in range(4) for x in (0, 3)),
)

#: Table VI row 3: 16 tiles, 8 memory nodes (GPU-matched FLOPs).
#:
#: Tile order matters: vertex ``v`` lives on tile ``v % 16`` and memory
#: node ``v % 8``, so tiles ``k`` and ``k + 8`` share memory node ``k``.
#: Listing the outer tile columns (x = 1, 4) first and the inner columns
#: (x = 2, 3) second keeps every memory node's traffic inside its own mesh
#: row, next to its two client tiles — the placement Figure 9 depicts.
GPU_ISO_FLOPS = AcceleratorConfig(
    name="GPU iso-FLOPS",
    mesh_width=6,
    mesh_height=4,
    tile_coords=(
        tuple((x, y) for y in range(4) for x in (1, 4))
        + tuple((x, y) for y in range(4) for x in (2, 3))
    ),
    memory_coords=tuple((x, y) for y in range(4) for x in (0, 5)),
)

#: All Table VI configurations, in paper order.
CONFIGURATIONS: tuple[AcceleratorConfig, ...] = (
    CPU_ISO_BW,
    GPU_ISO_BW,
    GPU_ISO_FLOPS,
)

#: The same configurations keyed by name, for O(1) resolution.
CONFIGURATIONS_BY_NAME: dict[str, AcceleratorConfig] = {
    c.name: c for c in CONFIGURATIONS
}


def configuration_by_name(name: str) -> AcceleratorConfig:
    """Resolve a Table VI configuration name; unknown names raise a
    :class:`KeyError` that lists every valid name."""
    try:
        return CONFIGURATIONS_BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown configuration {name!r}; available: "
            f"{[c.name for c in CONFIGURATIONS]}"
        ) from None
