"""Vertex-program representation executed by the runtime engine.

The paper's runtime (Algorithm 1) executes, per layer, one vertex program
for every vertex in the work queue.  Each program here is a
:class:`VertexTask` — a pull-model dataflow that computes *one output
vertex* of the layer (Section IV: "a vertex program that describes the
dataflow required to compute one output vertex"):

1. control: fixed runtime bookkeeping on the GPE,
2. structure read: one asynchronous block load (e.g. the adjacency row),
3. traversal: rounds of dependent pointer-chasing reads (multi-hop
   models like PGNN; each visit costs GPE sequencing work),
4. gather + aggregate: neighbour values are fetched by indirect
   asynchronous requests routed straight to this vertex's AGG entry,
5. DNA job: the vertex's dense computation, staged through the DNQ,
6. writeback of the result to memory.

Phases a task does not need are simply left at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraversalRound:
    """One round of dependent traversal reads.

    Rounds execute serially (round ``i+1`` needs addresses loaded in
    round ``i``); the ``count`` reads within a round are issued
    asynchronously and overlap.
    """

    count: int
    bytes_each: int

    def __post_init__(self) -> None:
        if self.count < 0 or self.bytes_each < 0:
            raise ValueError("traversal round fields cannot be negative")


@dataclass(frozen=True)
class VertexTask:
    """Dataflow to compute one output vertex (or edge) of a layer."""

    vertex: int
    control_instructions: int = 0
    block_load_bytes: int = 0
    traversal: tuple[TraversalRound, ...] = ()
    gather_count: int = 0
    gather_bytes_each: int = 0
    local_contributions: int = 0
    feature_bytes: int = 0
    dna_macs: int = 0
    output_bytes: int = 0
    dnq_queue: int = 0

    def __post_init__(self) -> None:
        if self.vertex < 0:
            raise ValueError("vertex id cannot be negative")
        for name in (
            "control_instructions",
            "block_load_bytes",
            "gather_count",
            "gather_bytes_each",
            "local_contributions",
            "feature_bytes",
            "dna_macs",
            "output_bytes",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if self.local_contributions and not self.traversal:
            raise ValueError(
                "local contributions are sourced from traversal data; "
                "a task with local_contributions needs traversal rounds"
            )

    @property
    def has_aggregation(self) -> bool:
        """True when the task allocates an AGG entry."""
        return self.gather_count > 0 or self.local_contributions > 0

    @property
    def expected_inputs(self) -> int:
        """Contribution count the AGG entry is allocated with."""
        return self.gather_count + self.local_contributions

    @property
    def has_dna_job(self) -> bool:
        """True when the task stages work through the DNQ to the DNA."""
        return self.dna_macs > 0

    @property
    def traversal_visits(self) -> int:
        """Total dependent traversal reads across all rounds."""
        return sum(r.count for r in self.traversal)


@dataclass
class LayerProgram:
    """One layer: hardware configuration plus the per-vertex tasks."""

    name: str
    tasks: list[VertexTask]
    dnq_entry_bytes: int = 256
    agg_width_values: int = 16
    dna_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError(f"layer {self.name!r} has no tasks")
        if not 0 < self.dna_efficiency <= 1:
            raise ValueError("dna_efficiency must be in (0, 1]")

    @property
    def total_dna_macs(self) -> int:
        return sum(t.dna_macs for t in self.tasks)

    @property
    def total_visits(self) -> int:
        return sum(t.traversal_visits for t in self.tasks)

    @property
    def dram_bytes_requested(self) -> int:
        """DRAM bytes the layer's tasks request from the memory nodes.

        Per task: the block load, every traversal round, the gather
        reads, the feature fetch of a DNA job, and the writeback.  The
        engine checks it against the controllers' ``bytes_requested``
        after every layer.
        """
        total = 0
        for t in self.tasks:
            total += (t.block_load_bytes + t.gather_count * t.gather_bytes_each
                      + t.output_bytes)
            if t.traversal:
                for r in t.traversal:
                    total += r.count * r.bytes_each
            if t.dna_macs > 0:
                total += t.feature_bytes
        return total


@dataclass
class AcceleratorProgram:
    """A full GNN model as an ordered layer sequence (Algorithm 1)."""

    name: str
    layers: list[LayerProgram] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("program needs at least one layer")

    @property
    def num_tasks(self) -> int:
        return sum(len(layer.tasks) for layer in self.layers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AcceleratorProgram({self.name!r}, layers={len(self.layers)}, "
            f"tasks={self.num_tasks})"
        )
