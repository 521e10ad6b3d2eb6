"""Property-based tests for the runtime engine.

Random vertex-task programs must always complete (no deadlock), respect
layer ordering, and behave monotonically under added work.  Tasks are
drawn as plain task dicts, the rows of :meth:`TaskTable.rows`.
"""

from hypothesis import given, settings, strategies as st

from repro.accel import CPU_ISO_BW, GPU_ISO_BW
from repro.runtime import (
    AcceleratorProgram,
    LayerProgram,
    TaskTable,
    simulate,
)


@st.composite
def tasks(draw, max_vertex=63):
    """One task dict with every key present, as ``TaskTable.rows`` writes."""
    row = TaskTable(1, vertex=draw(st.integers(0, max_vertex))).rows()[0]
    kind = draw(st.sampled_from(["control", "dna", "gather", "traversal",
                                 "mixed"]))
    row["control_instructions"] = draw(st.integers(0, 200))
    if kind in ("dna", "mixed"):
        row["feature_bytes"] = draw(st.integers(4, 4096))
        row["dna_macs"] = draw(st.integers(1, 50_000))
        row["output_bytes"] = draw(st.integers(0, 256))
    if kind in ("gather", "mixed"):
        row["gather_count"] = draw(st.integers(1, 30))
        row["gather_bytes_each"] = draw(st.integers(4, 256))
        row["output_bytes"] = draw(st.integers(0, 256))
    if kind == "traversal":
        count = draw(st.integers(1, 40))
        row["traversal"] = [{"count": count, "bytes_each": 4}]
        row["local_contributions"] = draw(st.sampled_from([0, count]))
    if kind == "control":
        row["block_load_bytes"] = draw(st.integers(0, 1024))
    return row


@st.composite
def programs(draw):
    num_layers = draw(st.integers(1, 3))
    layers = []
    for i in range(num_layers):
        layer_tasks = draw(st.lists(tasks(), min_size=1, max_size=25))
        # Entries must hold the largest staged feature (validated by the
        # engine before execution).
        min_entry = max(
            [t["feature_bytes"] for t in layer_tasks if t["dna_macs"]],
            default=64,
        )
        entry = max(min_entry, draw(st.sampled_from([64, 1024, 8192])))
        layers.append(
            LayerProgram(
                name=f"layer{i}",
                tasks=TaskTable.from_rows(layer_tasks),
                dnq_entry_bytes=entry,
                agg_width_values=draw(st.sampled_from([4, 16, 64])),
                dna_efficiency=draw(st.sampled_from([0.25, 0.5, 1.0])),
            )
        )
    return AcceleratorProgram(name="random", layers=layers)


@given(programs())
@settings(max_examples=25, deadline=None)
def test_random_programs_complete_without_deadlock(program):
    report = simulate(program, CPU_ISO_BW)
    assert len(report.layers) == len(program.layers)
    assert report.latency_ns >= 0


@given(programs())
@settings(max_examples=15, deadline=None)
def test_layers_never_overlap(program):
    report = simulate(program, CPU_ISO_BW)
    for previous, current in zip(report.layers, report.layers[1:]):
        assert current.start_ns >= previous.end_ns
    for layer in report.layers:
        assert layer.end_ns >= layer.start_ns


@given(programs())
@settings(max_examples=15, deadline=None)
def test_determinism(program):
    a = simulate(program, CPU_ISO_BW)
    b = simulate(program, CPU_ISO_BW)
    assert a.latency_ns == b.latency_ns
    assert a.dram_bytes == b.dram_bytes


@given(programs())
@settings(max_examples=15, deadline=None)
def test_multi_tile_never_slower_than_4x_single(program):
    """Sanity bound: 8 tiles with 8 memory nodes cannot be drastically
    slower than one tile (barriers can cost a constant, not a factor)."""
    single = simulate(program, CPU_ISO_BW)
    multi = simulate(program, GPU_ISO_BW)
    assert multi.latency_ns <= 4 * single.latency_ns + 1000.0


@given(tasks(), st.integers(1, 20))
@settings(max_examples=15, deadline=None)
def test_more_copies_of_a_task_never_faster(task, copies):
    def program_with(n):
        layer_tasks = TaskTable.from_rows(
            {**task, "vertex": i} for i in range(n)
        )
        return AcceleratorProgram(
            name="copies",
            layers=[
                LayerProgram(
                    name="l",
                    tasks=layer_tasks,
                    dnq_entry_bytes=max(64, task["feature_bytes"]),
                )
            ],
        )

    few = simulate(program_with(1), CPU_ISO_BW)
    many = simulate(program_with(copies), CPU_ISO_BW)
    assert many.latency_ns >= few.latency_ns - 1e-6
