"""Property-based invariants of the layer IR and its generic lowering.

Two views derive from one :class:`~repro.models.ir.ModelIR`: the
analytical :class:`~repro.models.workload.ModelWorkload` (attached op
stream) and the lowered :class:`~repro.runtime.program.AcceleratorProgram`.
These properties pin the conservation laws connecting them on randomly
generated graphs, for every registered model family:

* dense MACs are conserved between the lowered vertex tasks and the
  workload's :class:`~repro.models.workload.DenseMatmul` totals;
* every gather/reduce phase's fan-in and output traffic match the
  spec's declared ``num_inputs``/``num_outputs``/``width``;
* lowering and the IR content digest are deterministic;
* every lowered vertex task equals its spec's rule evaluated one vertex
  at a time, on graphs with isolated vertices and on graph sets with a
  one-node graph.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accel.config import TileConfig
from repro.graphs.generators import citation_graph, molecule_graph_set
from repro.graphs.graph import Graph, GraphSet
from repro.models import GAT, GCN, GIN, MPNN, PGNN, GraphSAGE
from repro.models.ir import (
    DenseTransform,
    EdgeAggregate,
    GraphReduce,
    ModelIR,
    TraversalAggregate,
)
from repro.models.workload import BYTES_PER_VALUE, DenseMatmul
from repro.runtime.compiler import lower
from repro.runtime.program import TaskTable


def _citation(num_nodes, num_edges, features, seed):
    graph = citation_graph(num_nodes, num_edges, seed=seed)
    rng = np.random.default_rng(seed)
    graph.node_features = rng.standard_normal(
        (num_nodes, features)
    ).astype(np.float32)
    return graph


@st.composite
def model_and_graph(draw):
    """One (model, graph) pair per registered family, random shapes."""
    num_nodes = draw(st.integers(6, 28))
    max_edges = min(70, num_nodes * (num_nodes - 1) // 2)
    num_edges = draw(st.integers((num_nodes + 1) // 2, max_edges))
    features = draw(st.integers(1, 24))
    hidden = draw(st.integers(1, 16))
    out = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**16))
    family = draw(st.sampled_from(
        ["GCN", "GAT", "PGNN", "SAGE", "GIN", "MPNN"]
    ))
    if family == "MPNN":
        num_graphs = draw(st.integers(2, 5))
        # At least 3 atoms per molecule guarantees ring capacity >= 1
        # per graph, so a ring budget of at most num_graphs always
        # places (size-2 molecules can close no rings).
        total_nodes = draw(st.integers(3 * num_graphs, 6 * num_graphs))
        tree_edges = total_nodes - num_graphs
        total_edges = draw(st.integers(
            tree_edges, tree_edges + num_graphs
        ))
        edge_features = draw(st.integers(1, 6))
        data = molecule_graph_set(
            num_graphs, total_nodes, total_edges,
            node_feature_dim=features, edge_feature_dim=edge_features,
            seed=seed,
        )
        model = MPNN(
            node_features=features, edge_features=edge_features,
            hidden=hidden, out_features=out,
            steps=draw(st.integers(1, 3)), seed=seed,
        )
        return model, data
    graph = _citation(num_nodes, num_edges, features, seed)
    if family == "GCN":
        model = GCN(features, hidden, out, seed=seed)
    elif family == "GAT":
        model = GAT(
            features, hidden, out,
            num_heads=draw(st.integers(1, 4)),
            normalize=draw(st.booleans()), seed=seed,
        )
    elif family == "PGNN":
        model = PGNN(
            features, hidden, out,
            num_layers=draw(st.integers(1, 3)), seed=seed,
        )
    elif family == "SAGE":
        model = GraphSAGE(
            features, hidden, out,
            sample_size=draw(st.integers(1, 12)), seed=seed,
        )
    else:
        model = GIN(features, hidden, out, seed=seed)
    return model, graph


@given(model_and_graph())
@settings(max_examples=40, deadline=None)
def test_dense_macs_conserved_between_views(pair):
    # The MACs the lowered vertex tasks push through the DNA equal the
    # analytical workload's dense-matmul totals: neither view may count
    # work the other does not.
    model, data = pair
    ir = model.layer_ir(data)
    program = lower(ir, data)
    lowered_macs = sum(layer.total_dna_macs for layer in program.layers)
    workload_macs = sum(
        op.macs for op in ir.workload().ops if isinstance(op, DenseMatmul)
    )
    assert lowered_macs == workload_macs


@given(model_and_graph())
@settings(max_examples=40, deadline=None)
def test_aggregate_fanin_and_output_traffic_match_spec(pair):
    model, data = pair
    ir = model.layer_ir(data)
    program = lower(ir, data)
    layers = {layer.name: layer for layer in program.layers}
    for spec in ir.specs:
        if isinstance(spec, EdgeAggregate):
            layer = layers[spec.name]
            gathered = int(layer.tasks.gather_count.sum())
            # Exact when every vertex contributes; isolated vertices
            # still read their own state, adding at most one gather
            # per output entry.
            assert spec.num_inputs <= gathered
            assert gathered <= spec.num_inputs + spec.num_outputs
            assert len(layer.tasks) == spec.num_outputs
            assert layer.tasks.output_bytes.sum() == (
                spec.num_outputs * spec.width * BYTES_PER_VALUE
            )
        elif isinstance(spec, GraphReduce):
            layer = layers[spec.name]
            assert layer.tasks.gather_count.sum() == spec.num_inputs
            assert len(layer.tasks) == spec.num_outputs
            assert layer.tasks.output_bytes.sum() == (
                spec.num_outputs * spec.width * BYTES_PER_VALUE
            )


@given(model_and_graph())
@settings(max_examples=15, deadline=None)
def test_lowering_is_deterministic(pair):
    model, data = pair
    ir = model.layer_ir(data)
    assert lower(ir, data) == lower(ir, data)


@given(model_and_graph())
@settings(max_examples=15, deadline=None)
def test_ir_digest_is_deterministic(pair):
    model, data = pair
    assert model.layer_ir(data).digest() == model.layer_ir(data).digest()


@given(st.integers(1, 16), st.integers(1, 16))
@settings(max_examples=20, deadline=None)
def test_ir_digest_separates_hyper_parameters(hidden_a, hidden_b):
    # Different shape-affecting hyper-parameters must never share a
    # digest — the invariant every cache fingerprint leans on.
    graph = _citation(10, 18, features=5, seed=3)
    digest_a = GCN(5, hidden_a, 3, seed=0).layer_ir(graph).digest()
    digest_b = GCN(5, hidden_b, 3, seed=0).layer_ir(graph).digest()
    assert (digest_a == digest_b) == (hidden_a == hidden_b)


# -- every lowered task equals its rule, evaluated per vertex ----------------


@st.composite
def citation_with_isolated(draw):
    """A random citation graph with up to three isolated vertices added."""
    num_nodes = draw(st.integers(2, 24))
    max_edges = min(40, num_nodes * (num_nodes - 1) // 2)
    graph = citation_graph(
        num_nodes, draw(st.integers((num_nodes + 1) // 2, max_edges)),
        seed=draw(st.integers(0, 2**16)),
    )
    isolated = draw(st.integers(0, 3))
    indptr = np.concatenate([graph.indptr, [graph.nnz] * isolated])
    return Graph(indptr, graph.indices, num_nodes + isolated)


@st.composite
def lowering_input(draw):
    """A graph, or a small graph set holding a one-node graph."""
    if draw(st.booleans()):
        return draw(citation_with_isolated())
    one_node = Graph(np.zeros(2, dtype=np.int64), np.zeros(0, np.int64), 1)
    graphs = draw(st.lists(citation_with_isolated(), min_size=1, max_size=3))
    graphs.insert(draw(st.integers(0, len(graphs))), one_node)
    return GraphSet(graphs)


_sizes = st.integers(0, 64)

layer_specs = st.one_of(
    st.builds(
        DenseTransform, name=st.just("dense"), f_in=st.integers(1, 64),
        f_out=st.integers(1, 64), macs_per_item=st.integers(1, 4096),
        space=st.sampled_from(["vertex", "edge"]),
        out_values=st.none() | st.integers(1, 64),
    ),
    st.builds(
        EdgeAggregate, name=st.just("aggregate"), width=st.integers(1, 64),
        num_inputs=st.just(0), num_outputs=st.just(0),
        include_self=st.booleans(),
        sample_bound=st.none() | st.integers(0, 12),
        extra_gather_bytes=_sizes,
    ),
    st.builds(
        TraversalAggregate, name=st.just("traversal"),
        width=st.integers(1, 64), num_inputs=st.just(0),
        num_outputs=st.just(0),
        hop_bytes=st.lists(st.none() | _sizes, max_size=3).map(tuple),
    ),
    st.builds(
        GraphReduce, name=st.just("reduce"), width=st.integers(1, 64),
        num_inputs=st.just(0), num_outputs=st.just(0),
    ),
)


def _row(**fields):
    """A task dict with every omitted field at its default."""
    return {**TaskTable(1, vertex=0).rows()[0], **fields}


def _rule_rows(spec, data, ipv):
    """The spec's task dicts, one vertex at a time in plain Python."""
    graphs = data.graphs if isinstance(data, GraphSet) else [data]
    rows = []
    base = 0
    for graph in graphs:
        indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
        n = graph.num_nodes

        def neighbours(v):
            return indices[indptr[v]:indptr[v + 1]]

        if isinstance(spec, DenseTransform):
            out = spec.f_out if spec.out_values is None else spec.out_values
            items = (
                range(n) if spec.space == "vertex"
                else [v for v in range(n) for _ in neighbours(v)]
            )
            rows += [
                _row(vertex=base + v, control_instructions=ipv,
                     feature_bytes=4 * spec.f_in,
                     dna_macs=spec.macs_per_item,
                     output_bytes=4 * out)
                for v in items
            ]
        elif isinstance(spec, EdgeAggregate):
            for v in range(n):
                fanout = len(neighbours(v))
                if spec.sample_bound is not None:
                    fanout = min(fanout, spec.sample_bound)
                rows.append(_row(
                    vertex=base + v, control_instructions=ipv,
                    block_load_bytes=max(4, 4 * fanout),
                    gather_count=max(1, fanout + int(spec.include_self)),
                    gather_bytes_each=4 * spec.width
                    + spec.extra_gather_bytes,
                    output_bytes=4 * spec.width,
                ))
        elif isinstance(spec, TraversalAggregate):
            hops, previous = [], [1] * n
            for _ in spec.hop_bytes:
                previous = [
                    sum(previous[u] for u in neighbours(v)) for v in range(n)
                ]
                hops.append(previous)
            for v in range(n):
                degree = len(neighbours(v))
                rounds = [
                    {"count": hops[k][v],
                     "bytes_each": 4 * spec.width if size is None else size}
                    for k, size in enumerate(spec.hop_bytes) if hops[k][v]
                ]
                rows.append(_row(
                    vertex=base + v, control_instructions=ipv,
                    block_load_bytes=max(4, 4 * degree),
                    traversal=rounds,
                    gather_count=max(1, degree),
                    gather_bytes_each=4 * spec.width,
                    local_contributions=sum(hop[v] for hop in hops[1:]),
                    output_bytes=4 * spec.width,
                ))
        else:
            rows.append(_row(
                vertex=base, control_instructions=ipv, gather_count=n,
                gather_bytes_each=4 * spec.width,
                output_bytes=4 * spec.width,
            ))
        base += n
    return rows


@given(lowering_input(), layer_specs)
@settings(max_examples=150, deadline=None)
def test_every_lowered_task_equals_its_rule(data, spec):
    # The lowering is a few numpy expressions over the whole batch; the
    # rule here is the per-vertex definition.  All of it is integer
    # arithmetic, so the two must agree exactly.
    tile = TileConfig()
    rows = _rule_rows(spec, data, tile.gpe_costs.instructions_per_vertex)
    ir = ModelIR(model="m", graph="g", specs=(spec,))
    if not rows:  # an edge-space phase over a graph without edges
        with pytest.raises(ValueError, match="has no tasks"):
            lower(ir, data, tile)
        return
    (layer,) = lower(ir, data, tile).layers
    assert len(layer.tasks) == len(rows)
    assert layer.tasks.rows() == rows
