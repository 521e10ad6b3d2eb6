"""Fault-injection tests: the engine must fail loudly, not silently.

These tests break a hardware unit's contract mid-run (dropped grants,
lost completions) and assert that the engine's end-of-layer accounting
detects the hang instead of reporting a bogus latency.
"""

import numpy as np
import pytest

from repro.accel import Accelerator, CPU_ISO_BW
from repro.accel.agg import Aggregator
from repro.accel.dnq import DnnQueue
from repro.accel.gpe import GraphPE
from repro.graphs import citation_graph
from repro.models import GCN
from repro.runtime import compile_model
from repro.runtime.engine import RuntimeEngine


@pytest.fixture
def program():
    graph = citation_graph(30, 70, seed=2)
    graph.node_features = np.zeros((30, 8), dtype=np.float32)
    return compile_model(GCN(8, 8, 4), graph)


def test_dropped_agg_grant_is_detected(program, monkeypatch):
    """An AGG that never grants allocations deadlocks the layer; the
    engine must raise rather than return."""
    monkeypatch.setattr(
        Aggregator, "alloc", lambda self, expected, on_grant: None
    )
    engine = RuntimeEngine(Accelerator(CPU_ISO_BW))
    with pytest.raises(RuntimeError, match="deadlocked"):
        engine.run(program)


def test_dropped_dnq_grant_is_detected(program, monkeypatch):
    monkeypatch.setattr(
        DnnQueue, "reserve", lambda self, on_grant: None
    )
    engine = RuntimeEngine(Accelerator(CPU_ISO_BW))
    with pytest.raises(RuntimeError, match="deadlocked"):
        engine.run(program)


def test_stuck_thread_pool_is_detected(program, monkeypatch):
    """A thread pool that stops granting strands every task."""
    monkeypatch.setattr(
        GraphPE, "acquire_thread_at", lambda self, on_grant: None
    )
    engine = RuntimeEngine(Accelerator(CPU_ISO_BW))
    with pytest.raises(RuntimeError, match="deadlocked"):
        engine.run(program)


def test_healthy_run_after_fault_free_units(program):
    """Control: the same program completes when nothing is broken."""
    engine = RuntimeEngine(Accelerator(CPU_ISO_BW))
    report = engine.run(program)
    assert report.latency_ns > 0
