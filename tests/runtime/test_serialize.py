"""Tests for program/report JSON serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings

from repro.accel import CPU_ISO_BW
from repro.eval.accelerator import program_for
from repro.graphs import citation_graph
from repro.models import GCN, PGNN
from repro.models.registry import ALL_BENCHMARKS
from repro.runtime import (
    AcceleratorProgram,
    LayerProgram,
    TaskTable,
    compile_model,
    simulate,
)
from repro.runtime.serialize import (
    dump_program,
    load_program,
    program_from_dict,
    program_to_dict,
    report_from_dict,
    report_to_dict,
)

from tests.runtime.test_engine_properties import programs, tasks
from tests.runtime.test_program import ROW_KEYS

#: Registered benchmarks whose programs round-trip in the fast lane.
FAST_ROUND_TRIPS = ("gcn-cora", "pgnn-dblp_1")


@pytest.fixture
def program():
    graph = citation_graph(30, 70, seed=9)
    graph.node_features = np.zeros((30, 8), dtype=np.float32)
    return compile_model(GCN(8, 8, 4), graph)


class TestRoundTrip:
    def test_compiled_program_round_trips(self, program):
        clone = program_from_dict(program_to_dict(program))
        assert clone.name == program.name
        assert len(clone.layers) == len(program.layers)
        for a, b in zip(clone.layers, program.layers):
            assert a.name == b.name
            assert a.dnq_entry_bytes == b.dnq_entry_bytes
            assert a.tasks == b.tasks

    def test_traversal_rounds_preserved(self):
        graph = citation_graph(25, 60, seed=3)
        graph.node_features = graph.degrees().astype(np.float32).reshape(
            -1, 1
        )
        program = compile_model(PGNN(), graph)
        clone = program_from_dict(program_to_dict(program))
        original = program.layers[1].tasks
        restored = clone.layers[1].tasks
        assert original.total_visits > 0
        assert restored == original

    @given(tasks())
    @settings(max_examples=40, deadline=None)
    def test_any_task_round_trips(self, task):
        # One task dict comes back unchanged from JSON text.
        layer = LayerProgram(name="l", tasks=TaskTable.from_rows([task]))
        text = json.dumps(program_to_dict(
            AcceleratorProgram(name="one", layers=[layer])
        ))
        (clone,) = program_from_dict(json.loads(text)).layers
        assert clone.tasks.rows() == [task]

    def test_task_dicts_keep_the_row_order(self, program):
        # The golden program digests sort keys; this pins the order that
        # makes dumps byte-stable.
        for layer in program_to_dict(program)["layers"]:
            assert all(list(task) == ROW_KEYS for task in layer["tasks"])

    @given(programs())
    @settings(max_examples=15, deadline=None)
    def test_any_program_round_trips(self, program):
        clone = program_from_dict(program_to_dict(program))
        for a, b in zip(clone.layers, program.layers):
            assert a.tasks == b.tasks

    def test_json_representable(self, program):
        text = json.dumps(program_to_dict(program))
        assert program_from_dict(json.loads(text)).name == program.name

    @pytest.mark.parametrize("key", [
        pytest.param(b.key, marks=() if b.key in FAST_ROUND_TRIPS
                     else pytest.mark.slow)
        for b in ALL_BENCHMARKS
    ])
    def test_registered_program_round_trips(self, key):
        # Programs and layers compare field by field, tables by column.
        program = program_for(key)
        assert program_from_dict(program_to_dict(program)) == program


class TestFiles:
    def test_dump_and_load(self, program, tmp_path):
        path = tmp_path / "program.json"
        dump_program(program, str(path))
        clone = load_program(str(path))
        assert clone.num_tasks == program.num_tasks

    def test_loaded_program_simulates_identically(self, program, tmp_path):
        path = tmp_path / "program.json"
        dump_program(program, str(path))
        clone = load_program(str(path))
        original = simulate(program, CPU_ISO_BW)
        restored = simulate(clone, CPU_ISO_BW)
        assert restored.latency_ns == original.latency_ns


class TestReports:
    def test_report_round_trips(self, program):
        report = simulate(program, CPU_ISO_BW)
        clone = report_from_dict(report_to_dict(report))
        assert clone.latency_ns == pytest.approx(report.latency_ns)
        assert clone.benchmark == report.benchmark
        assert len(clone.layers) == len(report.layers)
        assert clone.bandwidth_utilization == report.bandwidth_utilization

    def test_report_dict_is_json_safe(self, program):
        report = simulate(program, CPU_ISO_BW)
        json.dumps(report_to_dict(report))  # must not raise
