"""Static validation of accelerator programs against a tile configuration.

The compiler emits well-formed programs, but hand-written vertex programs
(see ``examples/custom_gnn_accelerator.py``) can describe work the
hardware cannot execute — a staged input bigger than the whole DNQ
scratchpad, an aggregation wider than the AGG data pad.  The engine runs
:func:`assert_valid` before executing so such programs fail with a
message instead of a deadlock or a silently wrong schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.config import TileConfig
from repro.runtime.program import AcceleratorProgram, LayerProgram


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found in a program."""

    severity: str  # "error" | "warning"
    layer: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.layer}: {self.message}"


def _validate_layer(
    layer: LayerProgram, tile: TileConfig
) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []

    def error(message: str) -> None:
        issues.append(ValidationIssue("error", layer.name, message))

    def warn(message: str) -> None:
        issues.append(ValidationIssue("warning", layer.name, message))

    if layer.dnq_entry_bytes > tile.dnq_data_bytes:
        error(
            f"DNQ entry of {layer.dnq_entry_bytes}B exceeds the "
            f"{tile.dnq_data_bytes}B queue scratchpad"
        )
    if layer.agg_width_values * 4 > tile.agg_data_bytes:
        error(
            f"aggregation width {layer.agg_width_values} values exceeds "
            f"the {tile.agg_data_bytes}B data scratchpad"
        )
    tasks = layer.tasks
    max_feature = int(tasks.feature_bytes.max(initial=0))
    if max_feature > layer.dnq_entry_bytes:
        error(
            f"a task stages {max_feature}B through {layer.dnq_entry_bytes}B "
            f"DNQ entries"
        )
    bad_queue = np.flatnonzero(tasks.dnq_queue >= 2)
    if len(bad_queue):
        first = bad_queue[0]
        error(f"task for vertex {tasks.vertex[first]} uses DNQ queue "
              f"{tasks.dnq_queue[first]}; the DNQ has two virtual queues")
    if layer.dnq_entry_bytes <= tile.dnq_data_bytes:
        capacity = tile.max_dnq_entries(layer.dnq_entry_bytes)
        if capacity < tile.gpe_threads and tasks.dna_macs.any():
            warn(
                f"only {capacity} DNQ entries fit but the GPE runs "
                f"{tile.gpe_threads} threads; threads will stall on "
                f"reservations"
            )
    widths = tasks.gather_bytes_each[tasks.gather_count > 0]
    if np.any(widths % 64):
        warn(
            "gathered records are not 64B multiples; every read wastes "
            "DRAM burst bandwidth (Section V)"
        )
    return issues


def validate_program(
    program: AcceleratorProgram, tile: TileConfig
) -> list[ValidationIssue]:
    """All issues found in a program, errors first."""
    issues: list[ValidationIssue] = []
    for layer in program.layers:
        issues.extend(_validate_layer(layer, tile))
    issues.sort(key=lambda issue: issue.severity)  # "error" < "warning"
    return issues


def assert_valid(program: AcceleratorProgram, tile: TileConfig) -> None:
    """Raise ``ValueError`` listing every error-severity issue."""
    errors = [
        issue for issue in validate_program(program, tile)
        if issue.severity == "error"
    ]
    if errors:
        summary = "\n".join(str(issue) for issue in errors)
        raise ValueError(
            f"program {program.name!r} cannot run on this tile:\n{summary}"
        )
