"""Tests for the model -> program compiler."""

import numpy as np
import pytest

from repro.accel.config import TileConfig
from repro.graphs import citation_graph, collaboration_graph, molecule_graph_set
from repro.models import GAT, GCN, MPNN, PGNN
from repro.runtime import compile_model
from repro.runtime.compiler import dna_efficiency
from repro.dataflow import EYERISS_CONFIG


@pytest.fixture
def graph():
    g = citation_graph(50, 120, seed=3)
    g.node_features = np.zeros((50, 30), dtype=np.float32)
    return g


class TestDnaEfficiency:
    def test_perfect_fit(self):
        assert dna_efficiency(EYERISS_CONFIG, 13, 100, 14) == pytest.approx(1.0)

    def test_edge_waste(self):
        # 16 columns on a 14-wide array: 16/28.
        eff = dna_efficiency(EYERISS_CONFIG, 13, 100, 16)
        assert eff == pytest.approx(16 / 28)

    def test_bounded(self):
        for m, k, n in [(1, 1, 1), (1000, 7, 3), (13, 5, 14)]:
            assert 0 < dna_efficiency(EYERISS_CONFIG, m, k, n) <= 1


class TestGCNCompilation:
    def test_layer_structure(self, graph):
        program = compile_model(GCN(30, 16, 7), graph)
        assert [l.name for l in program.layers] == [
            "gcn0.project", "gcn0.propagate",
            "gcn1.project", "gcn1.propagate",
        ]

    def test_one_task_per_vertex(self, graph):
        program = compile_model(GCN(30, 16, 7), graph)
        for layer in program.layers:
            assert len(layer.tasks) == 50

    def test_project_tasks_fetch_features(self, graph):
        program = compile_model(GCN(30, 16, 7), graph)
        tasks = program.layers[0].tasks
        assert tasks.feature_bytes[0] == 30 * 4
        assert tasks.dna_macs[0] == 30 * 16
        assert tasks.output_bytes[0] == 16 * 4
        assert not tasks.gather_count.any()
        assert not tasks.local_contributions.any()

    def test_propagate_tasks_gather_neighbourhood(self, graph):
        program = compile_model(GCN(30, 16, 7), graph)
        tasks = program.layers[1].tasks
        deg = len(graph.neighbors(5))
        assert tasks.gather_count[5] == deg + 1  # self loop
        assert tasks.gather_bytes_each[5] == 16 * 4
        assert not tasks.dna_macs.any()

    def test_dnq_entry_matches_feature_size(self, graph):
        program = compile_model(GCN(30, 16, 7), graph)
        assert program.layers[0].dnq_entry_bytes == 120
        assert program.layers[2].dnq_entry_bytes == 64


class TestGATCompilation:
    def test_projection_covers_heads_and_scores(self, graph):
        program = compile_model(GAT(30, 8, 7, num_heads=4), graph)
        tasks = program.layers[0].tasks
        width = 4 * 8
        assert tasks.dna_macs[0] == 30 * width + width * 2
        assert tasks.output_bytes[0] == (width + 2 * 4) * 4

    def test_aggregate_records_carry_scores(self, graph):
        program = compile_model(GAT(30, 8, 7, num_heads=4), graph)
        tasks = program.layers[1].tasks
        assert tasks.gather_bytes_each[0] == (4 * 8 + 4) * 4


class TestMPNNCompilation:
    @pytest.fixture
    def molecules(self):
        return molecule_graph_set(5, 60, 62, 13, 5, seed=1)

    def test_layer_count(self, molecules):
        model = MPNN(hidden=16, out_features=8, steps=2, edge_mlp_hidden=12)
        program = compile_model(model, molecules)
        # embed + edge_network + 2*(messages, aggregate, update)
        # + readout_node + readout_sum
        assert len(program.layers) == 2 + 3 * 2 + 2

    def test_edge_layers_have_one_task_per_directed_edge(self, molecules):
        model = MPNN(hidden=16, out_features=8, steps=1, edge_mlp_hidden=12)
        program = compile_model(model, molecules)
        edge_layer = next(
            l for l in program.layers if l.name == "mpnn.edge_network"
        )
        assert len(edge_layer.tasks) == sum(g.nnz for g in molecules)

    def test_message_entry_includes_matrix_and_state(self, molecules):
        model = MPNN(hidden=16, out_features=8, steps=1, edge_mlp_hidden=12)
        program = compile_model(model, molecules)
        messages = next(
            l for l in program.layers if l.name.startswith("mpnn.messages")
        )
        assert messages.dnq_entry_bytes == 16 * 16 * 4 + 16 * 4

    def test_readout_sum_has_one_task_per_molecule(self, molecules):
        model = MPNN(hidden=16, out_features=8, steps=1, edge_mlp_hidden=12)
        program = compile_model(model, molecules)
        assert len(program.layers[-1].tasks) == 5


class TestPGNNCompilation:
    @pytest.fixture
    def dblp_like(self):
        g = collaboration_graph(40, 150, seed=2)
        g.node_features = g.degrees().astype(np.float32).reshape(-1, 1)
        return g

    def test_two_layers_per_model_layer(self, dblp_like):
        program = compile_model(PGNN(1, 8, 3, num_layers=2), dblp_like)
        assert len(program.layers) == 4

    def test_combine_tasks_have_two_hop_traversal(self, dblp_like):
        program = compile_model(PGNN(1, 8, 3, num_layers=2), dblp_like)
        combine = program.layers[1]
        task = combine.tasks.rows()[0]
        deg = len(dblp_like.neighbors(0))
        two_hop = int(dblp_like.degrees()[dblp_like.neighbors(0)].sum())
        assert [r["count"] for r in task["traversal"]] == [deg, two_hop]
        assert task["local_contributions"] == two_hop

    def test_traversal_dominates_workload(self, dblp_like):
        program = compile_model(PGNN(), dblp_like)
        visits = sum(l.total_visits for l in program.layers)
        macs = sum(l.total_dna_macs for l in program.layers)
        assert visits * 100 > macs  # GPE-bound by construction


class TestDispatch:
    def test_unknown_model_rejected(self, graph):
        class FakeModel:
            pass

        with pytest.raises(TypeError):
            compile_model(FakeModel(), graph)

    def test_custom_tile_costs_propagate(self, graph):
        tile = TileConfig()
        program = compile_model(GCN(30, 16, 7), graph, tile)
        assert (
            program.layers[0].tasks.control_instructions[0]
            == tile.gpe_costs.instructions_per_vertex
        )
