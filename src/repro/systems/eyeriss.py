"""The Eyeriss-like dense dataflow accelerator as an :class:`ExecutionBackend`.

Wraps the Section II study (:mod:`repro.dataflow`): a benchmark's layer
IR is lowered to its dense matmul sequence
(:func:`repro.dataflow.layers.ir_dense_layers`) and scheduled onto the
Table I spatial array by the NN-Dataflow-like mapper, priced at the
paper's 68 GBps off-chip bandwidth.  Any model whose IR is
dense-expressible maps — GCN, GAT, MPNN, GraphSAGE, GIN.  Every
benchmark has a plan; executing one with a dependent multi-hop traversal
phase (PGNN's power-graph expansion) raises
:class:`~repro.systems.base.UnsupportedWorkloadError` naming the
offending IR phases.
"""

from __future__ import annotations

import dataclasses

from repro.accel.config import check_clock_ghz
from repro.dataflow.layers import ir_dense_layers, unmappable_specs
from repro.dataflow.mapper import analyze_network
from repro.dataflow.spatial import EYERISS_CONFIG, SpatialArrayConfig
from repro.exp.cache import DEFAULT_CACHE
from repro.models.registry import benchmark_by_key, benchmark_ir
from repro.systems.base import (
    ExecutionPlan,
    SystemReport,
    UnsupportedWorkloadError,
)
from repro.systems.registry import SystemOptions

#: Off-chip bandwidth of the Section II study (GBps) — the Table II
#: "68 GBps" column, matching the CPU iso-BW operating point.
SECTION2_BANDWIDTH_GBPS = 68.0

#: Array clock of the Section II study (GHz).
DEFAULT_FREQ_GHZ = 2.4


class EyerissSystem:
    """The dense DNN accelerator the paper's Section II argues against."""

    name = "eyeriss"

    def __init__(self, options: SystemOptions = SystemOptions()) -> None:
        self._array: SpatialArrayConfig = EYERISS_CONFIG
        self._bandwidth_gbps = SECTION2_BANDWIDTH_GBPS
        self._freq_ghz = (DEFAULT_FREQ_GHZ if options.clock_ghz is None
                          else check_clock_ghz(options.clock_ghz))

    def prepare(self, benchmark_key: str) -> ExecutionPlan:
        return ExecutionPlan(
            system=self.name,
            benchmark_key=benchmark_key,
            params=(
                ("array", dataclasses.asdict(self._array)),
                ("bandwidth_gbps", self._bandwidth_gbps),
                ("freq_ghz", self._freq_ghz),
            ),
        )

    def execute(
        self,
        plan: ExecutionPlan,
        cache: object = DEFAULT_CACHE,
    ) -> SystemReport:
        ir = benchmark_ir(benchmark_by_key(plan.benchmark_key))
        unmappable = unmappable_specs(ir)
        if unmappable:
            raise UnsupportedWorkloadError(
                f"the eyeriss dataflow study cannot map "
                f"{plan.benchmark_key!r}: IR phases {unmappable} are "
                f"dependent multi-hop traversals with no dense-matrix "
                f"equivalent"
            )
        layers = ir_dense_layers(ir)
        analysis = analyze_network(
            layers, self._array, self._bandwidth_gbps, self._freq_ghz
        )
        breakdown: dict[str, float] = {
            layer.layer.name + "_ms": layer.latency_ns * 1e-6
            for layer in analysis.layers
        }
        breakdown.update(
            pe_utilization=analysis.pe_utilization,
            useful_pe_utilization=analysis.useful_pe_utilization,
            mean_bandwidth_gbps=analysis.mean_bandwidth_gbps,
            useful_traffic_fraction=analysis.useful_traffic_fraction,
            useful_compute_fraction=analysis.useful_compute_fraction,
        )
        return SystemReport(
            system=self.name,
            benchmark=plan.benchmark_key,
            latency_ms=analysis.latency_ms,
            breakdown=breakdown,
        )
