"""JSON serialization for programs and reports.

Long sweeps are expensive; tooling wants to persist results and reload
them without re-simulating.  Programs round-trip exactly; reports
serialize one way (they are measurements, not inputs).
"""

from __future__ import annotations

import json
from typing import Any

from repro.runtime.program import AcceleratorProgram, LayerProgram, TaskTable
from repro.runtime.report import LayerReport, SimulationReport


def program_to_dict(program: AcceleratorProgram) -> dict[str, Any]:
    """A full program as plain data."""
    return {
        "name": program.name,
        "layers": [
            {
                "name": layer.name,
                "dnq_entry_bytes": layer.dnq_entry_bytes,
                "agg_width_values": layer.agg_width_values,
                "dna_efficiency": layer.dna_efficiency,
                "tasks": layer.tasks.rows(),
            }
            for layer in program.layers
        ],
    }


def program_from_dict(data: dict[str, Any]) -> AcceleratorProgram:
    """Inverse of :func:`program_to_dict`."""
    return AcceleratorProgram(
        name=data["name"],
        layers=[
            LayerProgram(
                name=layer["name"],
                tasks=TaskTable.from_rows(layer["tasks"]),
                dnq_entry_bytes=layer["dnq_entry_bytes"],
                agg_width_values=layer["agg_width_values"],
                dna_efficiency=layer["dna_efficiency"],
            )
            for layer in data["layers"]
        ],
    )


def dump_program(program: AcceleratorProgram, path: str) -> None:
    """Write a program to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(program_to_dict(program), handle)


def load_program(path: str) -> AcceleratorProgram:
    """Read a program from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        return program_from_dict(json.load(handle))


def report_to_dict(report: SimulationReport) -> dict[str, Any]:
    """A simulation report as plain data (one-way)."""
    return {
        "benchmark": report.benchmark,
        "config_name": report.config_name,
        "clock_ghz": report.clock_ghz,
        "latency_ms": report.latency_ms,
        "dram_bytes": report.dram_bytes,
        "dram_wasted_bytes": report.dram_wasted_bytes,
        "mean_bandwidth_gbps": report.mean_bandwidth_gbps,
        "bandwidth_utilization": report.bandwidth_utilization,
        "dna_utilization": report.dna_utilization,
        "gpe_utilization": report.gpe_utilization,
        "agg_utilization": report.agg_utilization,
        "noc_peak_link_utilization": report.noc_peak_link_utilization,
        "layers": [
            {
                "name": layer.name,
                "start_ns": layer.start_ns,
                "end_ns": layer.end_ns,
                "num_tasks": layer.num_tasks,
            }
            for layer in report.layers
        ],
    }


def report_from_dict(data: dict[str, Any]) -> SimulationReport:
    """Rebuild a report object from serialized data."""
    return SimulationReport(
        benchmark=data["benchmark"],
        config_name=data["config_name"],
        clock_ghz=data["clock_ghz"],
        layers=[
            LayerReport(
                name=layer["name"],
                start_ns=layer["start_ns"],
                end_ns=layer["end_ns"],
                num_tasks=layer["num_tasks"],
            )
            for layer in data["layers"]
        ],
        dram_bytes=data["dram_bytes"],
        dram_wasted_bytes=data["dram_wasted_bytes"],
        mean_bandwidth_gbps=data["mean_bandwidth_gbps"],
        bandwidth_utilization=data["bandwidth_utilization"],
        dna_utilization=data["dna_utilization"],
        gpe_utilization=data["gpe_utilization"],
        agg_utilization=data["agg_utilization"],
        noc_peak_link_utilization=data["noc_peak_link_utilization"],
    )
