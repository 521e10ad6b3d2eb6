"""Accelerator runtime: vertex programs, the model compiler, and the
Algorithm 1 execution engine.

A GNN model is compiled (:mod:`repro.runtime.compiler`) into an
:class:`~repro.runtime.program.AcceleratorProgram` — an ordered sequence
of layers, each carrying a hardware configuration and a
:class:`~repro.runtime.program.TaskTable` with one vertex task per
output vertex: one read-only integer column per task field, lowered
with numpy over the whole graph batch.  A hand-written layer builds its
table the same way, or from plain task dicts with
:meth:`~repro.runtime.program.TaskTable.from_rows`.  The
:class:`~repro.runtime.engine.RuntimeEngine` executes the program on an
:class:`~repro.accel.system.Accelerator` exactly as Algorithm 1
prescribes: configure, barrier, run every vertex program, barrier,
next layer.
"""

from repro.runtime.program import AcceleratorProgram, LayerProgram, TaskTable
from repro.runtime.compiler import compile_model
from repro.runtime.engine import (
    DeadlockError,
    RuntimeEngine,
    SimulationFailure,
    simulate,
)
from repro.runtime.report import LayerReport, SimulationReport
from repro.runtime.trace import TraceEvent, Tracer
from repro.runtime.validate import (
    ValidationIssue,
    assert_valid,
    validate_program,
)

__all__ = [
    "TaskTable",
    "LayerProgram",
    "AcceleratorProgram",
    "compile_model",
    "RuntimeEngine",
    "SimulationFailure",
    "DeadlockError",
    "simulate",
    "LayerReport",
    "SimulationReport",
    "ValidationIssue",
    "validate_program",
    "assert_valid",
    "Tracer",
    "TraceEvent",
]
