"""Tests for static program validation."""

import numpy as np
import pytest

from repro.accel import CPU_ISO_BW, TileConfig
from repro.graphs import citation_graph
from repro.models import GCN
from repro.runtime import (
    AcceleratorProgram,
    LayerProgram,
    TaskTable,
    assert_valid,
    compile_model,
    simulate,
    validate_program,
)

TILE = TileConfig()


def program_with_layer(**layer_kwargs) -> AcceleratorProgram:
    defaults = dict(name="layer", tasks=TaskTable(1, vertex=0))
    defaults.update(layer_kwargs)
    return AcceleratorProgram(name="p", layers=[LayerProgram(**defaults)])


class TestErrors:
    def test_oversized_dnq_entry(self):
        program = program_with_layer(dnq_entry_bytes=100 * 1024)
        issues = validate_program(program, TILE)
        assert any(i.severity == "error" and "DNQ entry" in i.message
                   for i in issues)

    def test_oversized_aggregation_width(self):
        program = program_with_layer(agg_width_values=20_000)
        issues = validate_program(program, TILE)
        assert any("aggregation width" in i.message for i in issues)

    def test_feature_larger_than_entry(self):
        program = program_with_layer(
            tasks=TaskTable(1, vertex=0, feature_bytes=2048, dna_macs=10),
            dnq_entry_bytes=512,
        )
        issues = validate_program(program, TILE)
        assert any("stages" in i.message for i in issues)

    def test_invalid_queue_id(self):
        program = program_with_layer(
            tasks=TaskTable(1, vertex=0, dnq_queue=3)
        )
        issues = validate_program(program, TILE)
        assert any("virtual queues" in i.message for i in issues)

    def test_assert_valid_raises_with_all_errors(self):
        program = program_with_layer(
            dnq_entry_bytes=100 * 1024, agg_width_values=20_000
        )
        with pytest.raises(ValueError) as excinfo:
            assert_valid(program, TILE)
        assert "DNQ entry" in str(excinfo.value)
        assert "aggregation width" in str(excinfo.value)


class TestWarnings:
    def test_thread_starvation_warning(self):
        program = program_with_layer(
            tasks=TaskTable(1, vertex=0, feature_bytes=9000, dna_macs=10),
            dnq_entry_bytes=9 * 1024,  # only 6 entries fit, 16 threads
        )
        issues = validate_program(program, TILE)
        warnings = [i for i in issues if i.severity == "warning"]
        assert any("threads will stall" in i.message for i in warnings)

    def test_unaligned_gather_warning(self):
        program = program_with_layer(
            tasks=TaskTable(1, vertex=0, gather_count=3,
                            gather_bytes_each=28)
        )
        issues = validate_program(program, TILE)
        assert any("DRAM burst" in i.message for i in issues)

    def test_warnings_do_not_fail_assert_valid(self):
        program = program_with_layer(
            tasks=TaskTable(1, vertex=0, gather_count=3,
                            gather_bytes_each=28)
        )
        assert_valid(program, TILE)  # must not raise


class TestIntegration:
    def test_compiled_programs_have_no_errors(self):
        graph = citation_graph(40, 90, seed=1)
        graph.node_features = np.zeros((40, 16), dtype=np.float32)
        program = compile_model(GCN(16, 8, 4), graph)
        errors = [
            i for i in validate_program(program, TILE)
            if i.severity == "error"
        ]
        assert errors == []

    def test_engine_rejects_invalid_program(self):
        program = program_with_layer(dnq_entry_bytes=100 * 1024)
        with pytest.raises(ValueError, match="cannot run"):
            simulate(program, CPU_ISO_BW)

    def test_issue_string_rendering(self):
        program = program_with_layer(dnq_entry_bytes=100 * 1024)
        issue = validate_program(program, TILE)[0]
        assert str(issue).startswith("[error] layer:")
