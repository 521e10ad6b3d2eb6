"""Tests for vertex-program data structures."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import (
    AcceleratorProgram,
    LayerProgram,
    TaskTable,
    TraversalRound,
    VertexTask,
)
from repro.runtime.program import TASK_COLUMNS, VALUE_LIMIT

from tests.runtime.test_engine_properties import tasks


class TestVertexTask:
    def test_defaults_are_empty_phases(self):
        task = VertexTask(vertex=3)
        assert not task.has_aggregation
        assert not task.has_dna_job
        assert task.traversal_visits == 0

    def test_gather_implies_aggregation(self):
        task = VertexTask(vertex=0, gather_count=4, gather_bytes_each=64)
        assert task.has_aggregation
        assert task.expected_inputs == 4

    def test_local_contributions_require_traversal(self):
        with pytest.raises(ValueError):
            VertexTask(vertex=0, local_contributions=3)

    def test_local_contributions_with_traversal(self):
        task = VertexTask(
            vertex=0,
            traversal=(TraversalRound(count=3, bytes_each=4),),
            local_contributions=3,
        )
        assert task.has_aggregation
        assert task.expected_inputs == 3
        assert task.traversal_visits == 3

    def test_expected_inputs_sums_sources(self):
        task = VertexTask(
            vertex=0,
            traversal=(TraversalRound(count=2, bytes_each=4),),
            gather_count=5,
            gather_bytes_each=64,
            local_contributions=2,
        )
        assert task.expected_inputs == 7

    def test_dna_job_flag(self):
        assert VertexTask(vertex=0, dna_macs=100).has_dna_job

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            VertexTask(vertex=-1)
        with pytest.raises(ValueError):
            VertexTask(vertex=0, dna_macs=-5)
        with pytest.raises(ValueError):
            TraversalRound(count=-1, bytes_each=4)

    @pytest.mark.parametrize("bad", [-1, VALUE_LIMIT, 1.5e3])
    @pytest.mark.parametrize("name", TASK_COLUMNS)
    def test_row_rejects_what_a_column_rejects(self, name, bad):
        # A row and a table accept the same values, so every row converts;
        # negative DNQ queues and non-integers fail here, not in validate.
        with pytest.raises(ValueError, match=name):
            VertexTask(**{"vertex": 0, name: bad})
        with pytest.raises(ValueError, match=name):
            TaskTable(1, **{"vertex": 0, name: [bad]})

    @pytest.mark.parametrize("bad", [-1, VALUE_LIMIT, 1.5e3])
    @pytest.mark.parametrize("name", ["count", "bytes_each"])
    def test_round_rejects_what_a_column_rejects(self, name, bad):
        with pytest.raises(ValueError, match=name):
            TraversalRound(**{"count": 1, "bytes_each": 4, name: bad})
        column = {"count": "round_count", "bytes_each": "round_bytes"}[name]
        fields = {"round_count": [1], "round_bytes": [4], column: [bad]}
        with pytest.raises(ValueError, match=column):
            TaskTable(1, vertex=0, round_ptr=[0, 1], **fields)


class TestLayerProgram:
    def test_requires_tasks(self):
        with pytest.raises(ValueError):
            LayerProgram(name="empty", tasks=[])

    def test_efficiency_bounds(self):
        with pytest.raises(ValueError):
            LayerProgram(
                name="bad", tasks=[VertexTask(vertex=0)], dna_efficiency=0.0
            )

    def test_totals(self):
        layer = LayerProgram(
            name="l",
            tasks=[
                VertexTask(vertex=0, dna_macs=10),
                VertexTask(
                    vertex=1,
                    traversal=(TraversalRound(count=4, bytes_each=4),),
                ),
            ],
        )
        assert layer.total_dna_macs == 10
        assert layer.total_visits == 4


class TestAcceleratorProgram:
    def test_requires_layers(self):
        with pytest.raises(ValueError):
            AcceleratorProgram(name="empty", layers=[])

    def test_task_count(self):
        layer = LayerProgram(name="l", tasks=[VertexTask(vertex=0)])
        program = AcceleratorProgram(name="p", layers=[layer, layer])
        assert program.num_tasks == 2


@st.composite
def big_tasks(draw):
    """Rows whose every value may come near the 2**31 column bound."""
    value = st.integers(0, VALUE_LIMIT - 1)
    traversal = tuple(draw(st.lists(
        st.builds(TraversalRound, count=value, bytes_each=value), max_size=3
    )))
    fields = {name: draw(value) for name in TASK_COLUMNS}
    if not traversal:
        fields["local_contributions"] = 0
    return VertexTask(traversal=traversal, **fields)


class TestTaskTable:
    @given(st.lists(tasks(), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_rows_round_trip(self, rows):
        table = TaskTable.from_tasks(rows)
        assert len(table) == len(rows)
        assert [table[i] for i in range(len(rows))] == rows
        assert list(table) == rows

    @given(st.lists(big_tasks(), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_rows_near_the_bound_round_trip(self, rows):
        table = TaskTable.from_tasks(rows)
        assert len(table) == len(rows)
        assert list(table) == rows
        assert table[-1] == rows[-1]
        # The totals are exact Python ints, as the per-row sums are.
        assert table.total_dna_macs == sum(r.dna_macs for r in rows)
        assert table.total_visits == sum(r.traversal_visits for r in rows)
        assert table.dram_bytes_requested == sum(
            r.block_load_bytes + r.gather_count * r.gather_bytes_each
            + r.output_bytes + (r.feature_bytes if r.has_dna_job else 0)
            + sum(x.count * x.bytes_each for x in r.traversal)
            for r in rows
        )

    def test_scalars_broadcast(self):
        table = TaskTable(3, vertex=[4, 5, 6], gather_count=2)
        assert table.gather_count.tolist() == [2, 2, 2]
        assert table[1] == VertexTask(vertex=5, gather_count=2)

    def test_rounds_are_csr(self):
        table = TaskTable(
            2, vertex=[0, 1], local_contributions=[0, 7],
            round_ptr=[0, 0, 2], round_count=[3, 7], round_bytes=[64, 4],
        )
        assert table[0].traversal == ()
        assert table[1].traversal == (
            TraversalRound(count=3, bytes_each=64),
            TraversalRound(count=7, bytes_each=4),
        )
        assert table.total_visits == 10

    @pytest.mark.parametrize("name", TASK_COLUMNS + ("round_count",
                                                     "round_bytes"))
    def test_negative_value_names_the_field(self, name):
        fields = {"vertex": 0, "round_ptr": [0, 1], "round_count": [1],
                  "round_bytes": [4], name: [-1]}
        with pytest.raises(ValueError, match=name):
            TaskTable(1, **fields)

    @pytest.mark.parametrize("name", TASK_COLUMNS + ("round_count",
                                                     "round_bytes"))
    def test_value_of_2_to_the_31_names_the_field(self, name):
        fields = {"vertex": 0, "round_ptr": [0, 1], "round_count": [1],
                  "round_bytes": [4], name: [VALUE_LIMIT]}
        with pytest.raises(ValueError, match=name):
            TaskTable(1, **fields)
        fields[name] = [VALUE_LIMIT - 1]
        TaskTable(1, **fields)  # the largest value allowed

    def test_local_contributions_need_a_round(self):
        with pytest.raises(ValueError, match="local_contributions"):
            TaskTable(2, vertex=[0, 1], local_contributions=[0, 3],
                      round_ptr=[0, 1, 1], round_count=[2], round_bytes=[4])

    @pytest.mark.parametrize("name", TASK_COLUMNS)
    def test_column_of_wrong_length_names_the_field(self, name):
        with pytest.raises(ValueError, match=name):
            TaskTable(3, **{"vertex": 0, name: [1, 2]})

    def test_round_columns_of_wrong_length_name_the_field(self):
        with pytest.raises(ValueError, match="round_ptr"):
            TaskTable(2, vertex=0, round_ptr=[0, 1])
        with pytest.raises(ValueError, match="round_bytes"):
            TaskTable(1, vertex=0, round_ptr=[0, 2], round_count=[1, 1],
                      round_bytes=[4])

    @pytest.mark.parametrize("name", TASK_COLUMNS + ("round_ptr",
                                                     "round_count",
                                                     "round_bytes"))
    def test_columns_are_read_only(self, name):
        table = TaskTable(1, vertex=0, round_ptr=[0, 1], round_count=[1],
                          round_bytes=[4])
        with pytest.raises(ValueError):
            getattr(table, name)[0] = 1

    def test_columns_stay_read_only_through_pickle(self):
        table = TaskTable(2, vertex=[0, 1], dna_macs=3)
        clone = pickle.loads(pickle.dumps(table))
        assert clone == table
        with pytest.raises(ValueError):
            clone.dna_macs[0] = 1

    def test_dram_bytes_beyond_int64_are_exact(self):
        big = VALUE_LIMIT - 1
        row = VertexTask(
            vertex=0, block_load_bytes=big, gather_count=big,
            gather_bytes_each=big, feature_bytes=big, dna_macs=1,
            output_bytes=big,
            traversal=(TraversalRound(count=big, bytes_each=big),),
        )
        layer = LayerProgram(name="huge", tasks=[row] * 3)
        expected = 3 * (2 * big * big + 3 * big)
        assert expected > 2**63
        assert layer.dram_bytes_requested == expected
        assert type(layer.dram_bytes_requested) is int

    def test_equality_is_by_columns(self):
        a = TaskTable(2, vertex=[0, 1], gather_count=[1, 2])
        assert a == TaskTable.from_tasks(list(a))
        assert a != TaskTable(2, vertex=[0, 1], gather_count=[1, 3])
        assert a != TaskTable(1, vertex=[0])
