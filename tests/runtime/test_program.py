"""Tests for vertex-program data structures."""

import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.accel import CPU_ISO_BW, Accelerator
from repro.runtime import (
    AcceleratorProgram,
    LayerProgram,
    RuntimeEngine,
    TaskTable,
)
from repro.runtime.engine import _LayerPlan
from repro.runtime.program import TASK_COLUMNS, VALUE_LIMIT

from tests.runtime.test_engine_properties import tasks

#: Every key of a task dict, in the order a program dump writes them.
ROW_KEYS = [
    "vertex", "control_instructions", "block_load_bytes", "traversal",
    "gather_count", "gather_bytes_each", "local_contributions",
    "feature_bytes", "dna_macs", "output_bytes", "dnq_queue",
]

#: Values no column accepts: negative, 2**31 and beyond, not integers.
bad_values = st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=VALUE_LIMIT),
    st.floats(),
    st.text(),
    st.none(),
)


def _plan(*rows):
    """The engine's per-task plan of one layer of task dicts."""
    layer = LayerProgram(name="l", tasks=TaskTable.from_rows(rows))
    return _LayerPlan(RuntimeEngine(Accelerator(CPU_ISO_BW)), layer)


class TestVertexTask:
    """One vertex task as a task dict: the row format that
    :meth:`TaskTable.rows` writes and :meth:`TaskTable.from_rows` reads.

    The per-task predicates live on columns where they are used: the
    engine's ``_LayerPlan`` decides aggregation, and a DNA job is a
    nonzero ``dna_macs``.
    """

    def test_keys_are_in_dump_order(self):
        row = TaskTable(1, vertex=3).rows()[0]
        assert list(row) == ROW_KEYS
        assert row == {**dict.fromkeys(ROW_KEYS, 0), "vertex": 3,
                       "traversal": []}

    def test_defaults_are_empty_phases(self):
        table = TaskTable.from_rows([{"vertex": 3}])
        assert table == TaskTable(1, vertex=3)
        assert table.total_visits == table.total_dna_macs == 0
        plan = _plan({"vertex": 3})
        assert plan.aggregates == [False]
        assert plan.round_ptr == [0, 0]

    def test_gather_implies_aggregation(self):
        plan = _plan({"vertex": 0, "gather_count": 4,
                      "gather_bytes_each": 64})
        assert plan.aggregates == [True]
        assert plan.expected_inputs == [4]

    def test_local_contributions_require_traversal(self):
        with pytest.raises(ValueError, match="local_contributions"):
            TaskTable.from_rows([{"vertex": 0, "local_contributions": 3}])

    def test_local_contributions_with_traversal(self):
        plan = _plan({"vertex": 0, "local_contributions": 3,
                      "traversal": [{"count": 3, "bytes_each": 4}]})
        assert plan.aggregates == [True]
        assert plan.expected_inputs == [3]
        assert plan.round_count == [3]

    def test_expected_inputs_sums_sources(self):
        plan = _plan({"vertex": 0, "gather_count": 5,
                      "gather_bytes_each": 64, "local_contributions": 2,
                      "traversal": [{"count": 2, "bytes_each": 4}]})
        assert plan.expected_inputs == [7]

    def test_dna_job_flag(self):
        # Only a task with a DNA job fetches its features.
        table = TaskTable.from_rows([
            {"vertex": 0, "feature_bytes": 64, "dna_macs": 100},
            {"vertex": 1, "feature_bytes": 64},
        ])
        assert table.dram_bytes_requested == 64
        assert _plan({"vertex": 0, "dna_macs": 100}).dna_macs == [100]

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError, match="vertex"):
            TaskTable.from_rows([{"vertex": -1}])
        with pytest.raises(ValueError, match="dna_macs"):
            TaskTable.from_rows([{"vertex": 0, "dna_macs": -5}])
        with pytest.raises(ValueError, match="round_count"):
            TaskTable.from_rows([{
                "vertex": 0, "traversal": [{"count": -1, "bytes_each": 4}],
            }])

    @pytest.mark.parametrize("bad", [-1, VALUE_LIMIT, 1.5e3])
    @pytest.mark.parametrize("name", TASK_COLUMNS)
    def test_row_rejects_what_a_column_rejects(self, name, bad):
        # Rows go through the column checks: negative DNQ queues and
        # non-integers fail here, not in validate.
        with pytest.raises(ValueError, match=name):
            TaskTable.from_rows([{"vertex": 0, name: bad}])
        with pytest.raises(ValueError, match=name):
            TaskTable(1, **{"vertex": 0, name: [bad]})

    @pytest.mark.parametrize("bad", [-1, VALUE_LIMIT, 1.5e3])
    @pytest.mark.parametrize("name", ["count", "bytes_each"])
    def test_round_rejects_what_a_column_rejects(self, name, bad):
        column = {"count": "round_count", "bytes_each": "round_bytes"}[name]
        traversal = [{"count": 1, "bytes_each": 4, name: bad}]
        with pytest.raises(ValueError, match=column):
            TaskTable.from_rows([{"vertex": 0, "traversal": traversal}])
        fields = {"round_count": [1], "round_bytes": [4], column: [bad]}
        with pytest.raises(ValueError, match=column):
            TaskTable(1, vertex=0, round_ptr=[0, 1], **fields)

    @given(tasks(), st.sampled_from(TASK_COLUMNS), bad_values)
    @settings(max_examples=60, deadline=None)
    def test_any_bad_value_names_its_field(self, row, name, bad):
        with pytest.raises(ValueError, match=name):
            TaskTable.from_rows([row, {**row, name: bad}])

    @given(tasks(), st.sampled_from([("count", "round_count"),
                                     ("bytes_each", "round_bytes")]),
           bad_values)
    @settings(max_examples=40, deadline=None)
    def test_any_bad_round_value_names_its_column(self, row, field, bad):
        key, column = field
        bad_round = {"count": 1, "bytes_each": 4, key: bad}
        row = {**row, "traversal": [*row["traversal"], bad_round]}
        with pytest.raises(ValueError, match=column):
            TaskTable.from_rows([row])

    @given(tasks(), st.text(min_size=1).filter(lambda k: k not in ROW_KEYS))
    @settings(max_examples=40, deadline=None)
    def test_any_unknown_key_is_named(self, row, key):
        with pytest.raises(TypeError, match=re.escape(repr(key))):
            TaskTable.from_rows([row, {**row, key: 0}])

    @given(st.lists(tasks(), min_size=1, max_size=5), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_a_row_without_vertex_is_named(self, rows, index):
        index %= len(rows)
        rows[index] = {k: v for k, v in rows[index].items() if k != "vertex"}
        with pytest.raises(TypeError, match="'vertex'"):
            TaskTable.from_rows(rows)


class TestLayerProgram:
    def test_requires_tasks(self):
        with pytest.raises(ValueError, match="no tasks"):
            LayerProgram(name="empty", tasks=TaskTable(0, vertex=[]))

    @pytest.mark.parametrize("tasks", [[], [{"vertex": 0}], (0,)])
    def test_takes_only_a_table(self, tasks):
        with pytest.raises(TypeError, match=r"TaskTable\.from_rows"):
            LayerProgram(name="rows", tasks=tasks)

    def test_efficiency_bounds(self):
        with pytest.raises(ValueError):
            LayerProgram(
                name="bad", tasks=TaskTable(1, vertex=0), dna_efficiency=0.0
            )

    def test_totals(self):
        layer = LayerProgram(
            name="l",
            tasks=TaskTable.from_rows([
                {"vertex": 0, "dna_macs": 10},
                {"vertex": 1, "traversal": [{"count": 4, "bytes_each": 4}]},
            ]),
        )
        assert layer.total_dna_macs == 10
        assert layer.total_visits == 4


class TestAcceleratorProgram:
    def test_requires_layers(self):
        with pytest.raises(ValueError):
            AcceleratorProgram(name="empty", layers=[])

    def test_task_count(self):
        layer = LayerProgram(name="l", tasks=TaskTable(1, vertex=0))
        program = AcceleratorProgram(name="p", layers=[layer, layer])
        assert program.num_tasks == 2


@st.composite
def big_rows(draw):
    """Task dicts whose every value may come near the 2**31 bound."""
    value = st.integers(0, VALUE_LIMIT - 1)
    row = {name: draw(value) for name in TASK_COLUMNS}
    row["traversal"] = draw(st.lists(
        st.fixed_dictionaries({"count": value, "bytes_each": value}),
        max_size=3,
    ))
    if not row["traversal"]:
        row["local_contributions"] = 0
    return row


class TestTaskTable:
    @given(st.lists(tasks(), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_rows_round_trip(self, rows):
        table = TaskTable.from_rows(rows)
        assert len(table) == len(rows)
        assert table.rows() == rows

    @given(st.lists(big_rows(), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_rows_near_the_bound_round_trip(self, rows):
        table = TaskTable.from_rows(rows)
        assert len(table) == len(rows)
        assert table.rows() == rows
        # The totals are exact Python ints, as the per-row sums are.
        rounds = [r for row in rows for r in row["traversal"]]
        assert table.total_dna_macs == sum(r["dna_macs"] for r in rows)
        assert table.total_visits == sum(r["count"] for r in rounds)
        assert table.dram_bytes_requested == sum(
            r["block_load_bytes"] + r["gather_count"] * r["gather_bytes_each"]
            + r["output_bytes"] + (r["feature_bytes"] if r["dna_macs"] else 0)
            for r in rows
        ) + sum(r["count"] * r["bytes_each"] for r in rounds)

    def test_scalars_broadcast(self):
        table = TaskTable(3, vertex=[4, 5, 6], gather_count=2)
        assert table.gather_count.tolist() == [2, 2, 2]
        assert table == TaskTable.from_rows(
            {"vertex": v, "gather_count": 2} for v in (4, 5, 6)
        )

    def test_rounds_are_csr(self):
        table = TaskTable(
            2, vertex=[0, 1], local_contributions=[0, 7],
            round_ptr=[0, 0, 2], round_count=[3, 7], round_bytes=[64, 4],
        )
        first, second = table.rows()
        assert first["traversal"] == []
        assert second["traversal"] == [{"count": 3, "bytes_each": 64},
                                       {"count": 7, "bytes_each": 4}]
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
        row = {
            "vertex": 0, "block_load_bytes": big, "gather_count": big,
            "gather_bytes_each": big, "feature_bytes": big, "dna_macs": 1,
            "output_bytes": big,
            "traversal": [{"count": big, "bytes_each": big}],
        }
        layer = LayerProgram(name="huge", tasks=TaskTable.from_rows([row] * 3))
        expected = 3 * (2 * big * big + 3 * big)
        assert expected > 2**63
        assert layer.dram_bytes_requested == expected
        assert type(layer.dram_bytes_requested) is int

    def test_equality_is_by_columns(self):
        a = TaskTable(2, vertex=[0, 1], gather_count=[1, 2])
        assert a == TaskTable.from_rows(a.rows())
        assert a != TaskTable(2, vertex=[0, 1], gather_count=[1, 3])
        assert a != TaskTable(1, vertex=[0])
        assert a != a.rows()

    def test_is_not_a_sequence(self):
        # Hot code reads columns; a row is only ever a dict from rows().
        table = TaskTable(2, vertex=[0, 1])
        with pytest.raises(TypeError):
            table[0]
        with pytest.raises(TypeError):
            iter(table)
