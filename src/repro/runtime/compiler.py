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

import numpy as np

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
from repro.runtime.program import AcceleratorProgram, LayerProgram, TaskTable

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
    """Shared per-compilation state: the batch as one graph, tile costs.

    A graph set's vertices are numbered consecutively in graph order
    (placement keys for the engine's work queues), and its adjacency is
    concatenated into one block-diagonal CSR over those global ids, so
    every lowering rule is a few numpy expressions over the whole batch.
    """

    def __init__(self, graph: Graph | GraphSet, tile: TileConfig) -> None:
        self.tile = tile
        self.costs = tile.gpe_costs
        self.array = tile.dna
        graphs = graph.graphs if isinstance(graph, GraphSet) else [graph]
        sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
        #: Number of vertices of each graph, and its first global id.
        self.graph_sizes = sizes
        self.node_base = np.cumsum(sizes) - sizes
        self.total_nodes = int(sizes.sum())
        edge_base = np.cumsum([0] + [g.nnz for g in graphs])
        self.indptr = np.concatenate(
            [[0]] + [g.indptr[1:] + base for g, base in zip(graphs, edge_base)]
        ).astype(np.int64)
        self.indices = np.concatenate(
            [g.indices + base for g, base in zip(graphs, self.node_base)]
        ).astype(np.int64)
        self.degrees = np.diff(self.indptr)


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
    """A batched dense layer (DNQ -> DNA -> writeback), one task per item.

    A vertex-space item is a vertex; an edge-space item is a stored edge,
    owned by the vertex whose adjacency row holds it.
    """
    feature_bytes = spec.f_in * VALUE_BYTES
    out_values = spec.f_out if spec.out_values is None else spec.out_values
    vertices = np.arange(ctx.total_nodes)
    if spec.space == "vertex":
        items = vertices
    elif spec.space == "edge":
        items = np.repeat(vertices, ctx.degrees)
    else:
        raise ValueError(f"{spec.name}: unknown iteration space {spec.space!r}")
    agg_width = (
        max(1, spec.f_out) if spec.agg_width is None else spec.agg_width
    )
    return LayerProgram(
        name=spec.name,
        tasks=TaskTable(
            len(items),
            vertex=items,
            control_instructions=ctx.costs.instructions_per_vertex,
            feature_bytes=feature_bytes,
            dna_macs=spec.macs_per_item,
            output_bytes=out_values * VALUE_BYTES,
        ),
        dnq_entry_bytes=feature_bytes,
        agg_width_values=agg_width,
        dna_efficiency=_dense_efficiency(spec, ctx, len(items)),
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
    fanout = ctx.degrees
    if spec.sample_bound is not None:
        fanout = np.minimum(fanout, spec.sample_bound)
    gather = fanout + (1 if spec.include_self else 0)
    return LayerProgram(
        name=spec.name,
        tasks=TaskTable(
            ctx.total_nodes,
            vertex=np.arange(ctx.total_nodes),
            control_instructions=ctx.costs.instructions_per_vertex,
            block_load_bytes=np.maximum(fanout * VALUE_BYTES, VALUE_BYTES),
            # every vertex reads at least its own state
            gather_count=np.maximum(gather, 1),
            gather_bytes_each=record_bytes,
            output_bytes=spec.width * VALUE_BYTES,
        ),
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
    ``sum_u deg(u)^(k-1)`` closed form on symmetric graphs).  A vertex's
    hop-``k`` count is a prefix-sum difference over its adjacency row of
    the hop ``k-1`` counts.  Every hop with a nonzero count is one
    traversal round; visits beyond hop 1 are local AGG contributions,
    not remote gathers.
    """
    width_bytes = spec.width * VALUE_BYTES
    n = ctx.total_nodes
    counts = np.empty((n, len(spec.hop_bytes)), dtype=np.int64)
    previous = np.ones(n, dtype=np.int64)
    for hop in range(len(spec.hop_bytes)):
        prefix = np.concatenate(([0], np.cumsum(previous[ctx.indices])))
        previous = prefix[ctx.indptr[1:]] - prefix[ctx.indptr[:-1]]
        counts[:, hop] = previous
    hop_bytes = np.array(
        [width_bytes if b is None else b for b in spec.hop_bytes],
        dtype=np.int64,
    )
    rounds = counts > 0
    degrees = ctx.degrees
    return LayerProgram(
        name=spec.name,
        tasks=TaskTable(
            n,
            vertex=np.arange(n),
            control_instructions=ctx.costs.instructions_per_vertex,
            block_load_bytes=np.maximum(degrees * VALUE_BYTES, VALUE_BYTES),
            gather_count=np.maximum(degrees, 1),  # 1-hop branch plus own state
            gather_bytes_each=width_bytes,
            local_contributions=counts[:, 1:].sum(axis=1),
            output_bytes=width_bytes,
            round_ptr=np.concatenate(([0], np.cumsum(rounds.sum(axis=1)))),
            round_count=counts[rounds],
            round_bytes=np.broadcast_to(hop_bytes, counts.shape)[rounds],
        ),
        dnq_entry_bytes=width_bytes,
        agg_width_values=spec.width,
        dna_efficiency=1.0,
    )


def _lower_reduce(spec: GraphReduce, ctx: _LoweringContext) -> LayerProgram:
    """A whole-graph reduction: one task per graph of the batch."""
    width_bytes = spec.width * VALUE_BYTES
    return LayerProgram(
        name=spec.name,
        tasks=TaskTable(
            len(ctx.graph_sizes),
            vertex=ctx.node_base,
            control_instructions=ctx.costs.instructions_per_vertex,
            gather_count=ctx.graph_sizes,
            gather_bytes_each=width_bytes,
            output_bytes=width_bytes,
        ),
        dnq_entry_bytes=width_bytes,
        agg_width_values=spec.width,
        dna_efficiency=1.0,
    )
