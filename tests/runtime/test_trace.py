"""Tests for execution tracing."""

import numpy as np
import pytest

from repro.accel import Accelerator, CPU_ISO_BW
from repro.graphs import citation_graph
from repro.models import GCN
from repro.obs import Observer
from repro.runtime import compile_model
from repro.runtime.engine import RuntimeEngine
from repro.runtime.trace import Tracer


@pytest.fixture(scope="module")
def traced_run():
    graph = citation_graph(24, 50, seed=5)
    graph.node_features = np.zeros((24, 8), dtype=np.float32)
    program = compile_model(GCN(8, 8, 4), graph)
    observer = Observer()
    engine = RuntimeEngine(Accelerator(CPU_ISO_BW), observer=observer)
    report = engine.run(program)
    return program, observer.tracer, report


def test_every_task_traced(traced_run):
    program, tracer, _ = traced_run
    starts = [e for e in tracer.events if e.phase == "start"]
    assert len(starts) == program.num_tasks


def test_every_task_finishes(traced_run):
    program, tracer, _ = traced_run
    finishes = [e for e in tracer.events if e.phase == "finish"]
    assert len(finishes) == program.num_tasks


def test_phase_order_per_task(traced_run):
    _, tracer, _ = traced_run
    events = tracer.for_vertex(0)
    start_layers = [e.layer for e in events if e.phase == "start"]
    assert start_layers == [
        "gcn0.project", "gcn0.propagate", "gcn1.project", "gcn1.propagate",
    ]
    for layer in start_layers:
        phases = [e.phase for e in events if e.layer == layer]
        assert phases[0] == "start"
        assert phases[-1] == "finish"


def test_timestamps_within_run(traced_run):
    _, tracer, report = traced_run
    for event in tracer.events:
        assert 0 <= event.time_ns <= report.latency_ns + report.layers[0].start_ns


def test_phase_counts(traced_run):
    program, tracer, _ = traced_run
    counts = tracer.phase_counts()
    assert counts["start"] == program.num_tasks
    assert counts["dna"] == 2 * 24  # two project layers
    assert counts["aggregate"] == 2 * 24  # two propagate layers


def test_task_spans_positive(traced_run):
    _, tracer, _ = traced_run
    for (layer, vertex), (start, end) in tracer.task_spans().items():
        assert end >= start


def test_slowest_tasks_ranked(traced_run):
    _, tracer, _ = traced_run
    slowest = tracer.slowest_tasks(count=3)
    assert len(slowest) == 3
    durations = [d for _, _, d in slowest]
    assert durations == sorted(durations, reverse=True)


class TestEmptyAndTinyTraces:
    """Zero- and single-event traces: every query degrades gracefully."""

    def test_empty_trace_queries(self):
        tracer = Tracer()
        assert len(tracer) == 0
        assert tracer.events == []
        assert tracer.for_vertex(0) == []
        assert tracer.phase_counts() == {}
        assert tracer.task_spans() == {}
        assert tracer.slowest_tasks() == []
        assert tracer.slowest_tasks(count=0) == []

    def test_single_event_trace(self):
        tracer = Tracer()
        tracer.record(12.5, "gcn0.project", 7, "start", (0, 0))
        assert len(tracer) == 1
        assert tracer.for_vertex(7) == tracer.events
        assert tracer.for_vertex(8) == []
        assert tracer.phase_counts() == {"start": 1}
        # A single event is a degenerate span: start == end, duration 0.
        assert tracer.task_spans() == {("gcn0.project", 7): (12.5, 12.5)}
        assert tracer.slowest_tasks() == [("gcn0.project", 7, 0.0)]
        assert tracer.slowest_tasks(count=0) == []

    def test_count_beyond_recorded_tasks_returns_all(self):
        tracer = Tracer()
        tracer.record(1.0, "l", 0, "start", (0, 0))
        tracer.record(5.0, "l", 0, "finish", (0, 0))
        assert tracer.slowest_tasks(count=100) == [("l", 0, 4.0)]

    def test_negative_count_rejected(self):
        tracer = Tracer()
        tracer.record(1.0, "l", 0, "start", (0, 0))
        with pytest.raises(ValueError, match="negative"):
            tracer.slowest_tasks(count=-1)


def test_untraced_engine_records_nothing():
    graph = citation_graph(10, 20, seed=1)
    graph.node_features = np.zeros((10, 4), dtype=np.float32)
    program = compile_model(GCN(4, 4, 2), graph)
    engine = RuntimeEngine(Accelerator(CPU_ISO_BW))
    engine.run(program)
    assert engine.tracer is None
