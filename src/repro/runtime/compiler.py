"""Layer-IR -> accelerator program compiler.

One generic :func:`lower` pass turns any model's per-layer op stream
(:class:`~repro.models.ir.ModelIR`) into the pull-model vertex programs
of :mod:`repro.runtime.program`; it replaced the five hand-written
per-model compilers, and ``tests/golden_digests.json`` pins every
program it produces field for field.

Per paper Section IV, a GNN layer becomes (up to) two accelerator
layers: a *project* layer whose vertex tasks stream features through the
DNQ into the DNA, and a *propagate* layer whose tasks gather neighbour
values into AGG entries.  Intermediate results travel through memory,
which is what the runtime's in-memory work queues imply.

Per-layer DNA efficiencies come from the :mod:`repro.dataflow` mapper
applied to the batched layer shape (Section V: "NN-Dataflow is used to
map DNN models onto an Eyeriss-like ... accelerator").
"""

from __future__ import annotations

import math

from repro.accel.config import TileConfig
from repro.dataflow.spatial import SpatialArrayConfig
from repro.graphs.graph import Graph, GraphSet
from repro.models.base import GNNModel
from repro.models.ir import (
    DenseTransform,
    EdgeAggregate,
    GraphReduce,
    LayerSpec,
    MacShape,
    ModelIR,
    Pointwise,
    TraversalAggregate,
)
from repro.runtime.program import (
    AcceleratorProgram,
    LayerProgram,
    TraversalRound,
    VertexTask,
)

VALUE_BYTES = 4


def dna_efficiency(array: SpatialArrayConfig, m: int, k: int, n: int) -> float:
    """MAC-throughput fraction of a batched (m, k, n) matmul on the array.

    Unlike the Section II study — where the graph convolution is forced
    through a rigid conv mapping with the adjacency as weights
    (:func:`repro.dataflow.mapper.compute_cycles`) — the accelerator's
    compiler is free to flatten a batched fully-connected layer's output
    elements across the PE array, so only the tail pass loses
    utilization.
    """
    outputs = m * n
    passes = math.ceil(outputs / array.num_pes)
    return min(1.0, outputs / (passes * array.num_pes))


def compile_model(
    model: GNNModel,
    graph: Graph | GraphSet,
    tile: TileConfig = TileConfig(),
) -> AcceleratorProgram:
    """Lower a benchmark model into an accelerator program via its IR."""
    layer_ir = getattr(model, "layer_ir", None)
    if layer_ir is None:
        raise TypeError(f"no compilation rule for {type(model).__name__}")
    return lower(layer_ir(graph), graph, tile)


class _LoweringContext:
    """Shared per-compilation state: graph batching, degrees, tile costs."""

    def __init__(self, graph: Graph | GraphSet, tile: TileConfig) -> None:
        self.tile = tile
        self.costs = tile.gpe_costs
        self.array = tile.dna
        # Global ids: graph-set vertices are numbered consecutively in
        # graph order (placement keys for the engine's work queues).
        self.graph_list = (
            graph.graphs if isinstance(graph, GraphSet) else [graph]
        )
        self.node_base: list[int] = []
        total = 0
        for g in self.graph_list:
            self.node_base.append(total)
            total += g.num_nodes
        self.total_nodes = total
        self._degrees: dict[int, object] = {}
        self._dst_of_edge: dict[int, list[int]] = {}

    def degrees(self, gi: int):
        """Per-vertex out-degrees of graph ``gi``, computed once."""
        if gi not in self._degrees:
            self._degrees[gi] = self.graph_list[gi].degrees()
        return self._degrees[gi]

    def dst_of_edge(self, gi: int) -> list[int]:
        """Destination vertex of each stored edge of graph ``gi``."""
        if gi not in self._dst_of_edge:
            g = self.graph_list[gi]
            dst: list[int] = []
            for v in range(g.num_nodes):
                dst.extend([v] * (g.indptr[v + 1] - g.indptr[v]))
            self._dst_of_edge[gi] = dst
        return self._dst_of_edge[gi]


def lower(
    ir: ModelIR,
    graph: Graph | GraphSet,
    tile: TileConfig = TileConfig(),
) -> AcceleratorProgram:
    """Lower a per-layer op stream into an accelerator program.

    Every spec kind has exactly one lowering rule; elementwise phases
    fold into the producing layer's writeback and emit no layer.
    """
    ctx = _LoweringContext(graph, tile)
    layers: list[LayerProgram] = []
    for spec in ir.specs:
        layer = _lower_spec(spec, ctx)
        if layer is not None:
            layers.append(layer)
    return AcceleratorProgram(name=ir.model, layers=layers)


def _lower_spec(spec: LayerSpec, ctx: _LoweringContext) -> LayerProgram | None:
    if isinstance(spec, DenseTransform):
        return _lower_dense(spec, ctx)
    if isinstance(spec, EdgeAggregate):
        return _lower_aggregate(spec, ctx)
    if isinstance(spec, TraversalAggregate):
        return _lower_traversal(spec, ctx)
    if isinstance(spec, GraphReduce):
        return _lower_reduce(spec, ctx)
    if isinstance(spec, Pointwise):
        return None
    raise TypeError(f"no lowering rule for {type(spec).__name__}")


def _dense_efficiency(
    spec: DenseTransform, ctx: _LoweringContext, num_items: int
) -> float:
    """The DNA mapping efficiency of one dense phase.

    Defaults to the natural batched shape (items, f_in, f_out); a
    :class:`~repro.models.ir.MacShape` override describes phases the
    compiler batches differently (per-edge matvecs, GRU gates).
    """
    shape = spec.mac_shape
    if shape is None:
        shape = MacShape(m=num_items, k=spec.f_in, n=spec.f_out)
    n = ctx.array.cols if shape.n is None else shape.n
    if shape.clamp_n_to_cols:
        n = min(ctx.array.cols, n)
    return dna_efficiency(ctx.array, shape.m, shape.k, n)


def _lower_dense(spec: DenseTransform, ctx: _LoweringContext) -> LayerProgram:
    """A batched dense layer (DNQ -> DNA -> writeback), one task per item."""
    feature_bytes = spec.f_in * VALUE_BYTES
    out_values = spec.f_out if spec.out_values is None else spec.out_values
    output_bytes = out_values * VALUE_BYTES
    tasks: list[VertexTask] = []
    if spec.space == "vertex":
        num_items = ctx.total_nodes
        for gi, g in enumerate(ctx.graph_list):
            base = ctx.node_base[gi]
            for v in range(g.num_nodes):
                tasks.append(
                    VertexTask(
                        vertex=base + v,
                        control_instructions=ctx.costs.instructions_per_vertex,
                        feature_bytes=feature_bytes,
                        dna_macs=spec.macs_per_item,
                        output_bytes=output_bytes,
                    )
                )
    elif spec.space == "edge":
        num_items = sum(g.nnz for g in ctx.graph_list)
        for gi, g in enumerate(ctx.graph_list):
            base = ctx.node_base[gi]
            dst_of_edge = ctx.dst_of_edge(gi)
            for e in range(g.nnz):
                tasks.append(
                    VertexTask(
                        vertex=base + dst_of_edge[e],
                        control_instructions=ctx.costs.instructions_per_vertex,
                        feature_bytes=feature_bytes,
                        dna_macs=spec.macs_per_item,
                        output_bytes=output_bytes,
                    )
                )
    else:
        raise ValueError(f"{spec.name}: unknown iteration space {spec.space!r}")
    agg_width = (
        max(1, spec.f_out) if spec.agg_width is None else spec.agg_width
    )
    return LayerProgram(
        name=spec.name,
        tasks=tasks,
        dnq_entry_bytes=feature_bytes,
        agg_width_values=agg_width,
        dna_efficiency=_dense_efficiency(spec, ctx, num_items),
    )


def _lower_aggregate(
    spec: EdgeAggregate, ctx: _LoweringContext
) -> LayerProgram:
    """A gather/aggregate layer (AGG entry per vertex).

    One rule covers every variant: the fan-in is the vertex degree,
    optionally capped by the sample bound; a self contribution extends
    the gather; isolated vertices still read their own state.
    """
    record_bytes = spec.width * VALUE_BYTES + spec.extra_gather_bytes
    tasks: list[VertexTask] = []
    for gi, g in enumerate(ctx.graph_list):
        base = ctx.node_base[gi]
        degrees = ctx.degrees(gi)
        for v in range(g.num_nodes):
            deg = int(degrees[v])
            fanout = (
                deg if spec.sample_bound is None
                else int(min(spec.sample_bound, deg))
            )
            gather = fanout + (1 if spec.include_self else 0)
            if gather == 0:
                gather = 1  # every vertex reads at least its own state
            tasks.append(
                VertexTask(
                    vertex=base + v,
                    control_instructions=ctx.costs.instructions_per_vertex,
                    block_load_bytes=max(VALUE_BYTES, fanout * VALUE_BYTES),
                    gather_count=gather,
                    gather_bytes_each=record_bytes,
                    output_bytes=spec.width * VALUE_BYTES,
                )
            )
    return LayerProgram(
        name=spec.name,
        tasks=tasks,
        dnq_entry_bytes=max(VALUE_BYTES, record_bytes),
        agg_width_values=spec.width,
        dna_efficiency=1.0,
    )


def _lower_traversal(
    spec: TraversalAggregate, ctx: _LoweringContext
) -> LayerProgram:
    """A dependent multi-hop expansion sequenced on the GPE (PGNN A^k).

    Hop 1 visits each neighbour; hop ``k`` visits the neighbours' hop
    ``k-1`` frontiers (counted as a multiset, so totals match the
    ``sum_u deg(u)^(k-1)`` closed form on symmetric graphs).  Visits
    beyond hop 1 are local AGG contributions, not remote gathers.
    """
    width_bytes = spec.width * VALUE_BYTES
    tasks: list[VertexTask] = []
    for gi, g in enumerate(ctx.graph_list):
        base = ctx.node_base[gi]
        degrees = ctx.degrees(gi)
        # hop_counts[k][v]: edge endpoints touched expanding hop k+1 of v.
        hop_counts = []
        prev = [1] * g.num_nodes
        for _ in spec.hop_bytes:
            current = [
                int(sum(prev[u] for u in g.neighbors(v)))
                for v in range(g.num_nodes)
            ]
            hop_counts.append(current)
            prev = current
        for v in range(g.num_nodes):
            deg = int(degrees[v])
            rounds = []
            local = 0
            for hop, bytes_spec in enumerate(spec.hop_bytes):
                count = hop_counts[hop][v]
                bytes_each = (
                    width_bytes if bytes_spec is None else bytes_spec
                )
                if count:
                    rounds.append(
                        TraversalRound(count=count, bytes_each=bytes_each)
                    )
                if hop >= 1:
                    local += count
            tasks.append(
                VertexTask(
                    vertex=base + v,
                    control_instructions=ctx.costs.instructions_per_vertex,
                    block_load_bytes=max(VALUE_BYTES, deg * VALUE_BYTES),
                    traversal=tuple(rounds),
                    gather_count=max(1, deg),  # 1-hop branch plus own state
                    gather_bytes_each=width_bytes,
                    local_contributions=local if rounds else 0,
                    output_bytes=width_bytes,
                )
            )
    return LayerProgram(
        name=spec.name,
        tasks=tasks,
        dnq_entry_bytes=width_bytes,
        agg_width_values=spec.width,
        dna_efficiency=1.0,
    )


def _lower_reduce(spec: GraphReduce, ctx: _LoweringContext) -> LayerProgram:
    """A whole-graph reduction: one task per graph of the batch."""
    width_bytes = spec.width * VALUE_BYTES
    tasks = [
        VertexTask(
            vertex=ctx.node_base[gi],
            control_instructions=ctx.costs.instructions_per_vertex,
            gather_count=g.num_nodes,
            gather_bytes_each=width_bytes,
            output_bytes=width_bytes,
        )
        for gi, g in enumerate(ctx.graph_list)
    ]
    return LayerProgram(
        name=spec.name,
        tasks=tasks,
        dnq_entry_bytes=width_bytes,
        agg_width_values=spec.width,
        dna_efficiency=1.0,
    )
