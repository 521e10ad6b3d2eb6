"""Multi-chip scaling system: partitioned shards plus an inter-chip link.

Splits a benchmark's input graph across ``N`` accelerator chips with a
registered partition method (:mod:`repro.partition.methods`), simulates
every shard on the *unmodified* single-chip ``accel`` path
(:func:`repro.eval.accelerator.run_config` with ``shard=`` — same
compiler, same event engine, the accel point key plus a ``shard``
stanza), and composes a :class:`~repro.systems.base.SystemReport`:

* **compute** — the chips run concurrently, so the compute term is the
  maximum shard latency (imbalance shows up directly as lost speedup);
* **communication** — each aggregation layer must move the features of
  every halo vertex across the inter-chip links before its reductions
  can complete.  The volume is the deduplicated Guirado et al. closed
  form (:func:`repro.partition.comm.halo_volume_bytes`); the time is
  ``volume / link_bandwidth + latency`` per exchange round, serialized
  with compute (a conservative non-overlapped bulk-synchronous model).

``chips=1`` builds its report with
:func:`repro.systems.accel.simulated_system_report`, the function the
``accel`` system uses — no partitioning, the very same cache key and
simulation a plain ``accel`` run produces — so the single-chip path can
never drift from the multi-chip system's N=1 point
(``tests/partition/test_multichip_identity.py`` pins this field by
field).  Every shard simulation honours the caller's ``cache``.

The plan fingerprint names the partition (chips, method, seed) and the
link model (bandwidth, latency, and the fixed
:data:`~repro.models.workload.BYTES_PER_VALUE` per exchanged value)
alongside the accelerator
configuration, so two multi-chip operating points that differ in any of
these never share a cached report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.accel.config import AcceleratorConfig
from repro.exp.cache import DEFAULT_CACHE, config_fingerprint
from repro.models.workload import BYTES_PER_VALUE
from repro.partition.methods import DEFAULT_METHOD, validate_method
from repro.systems.accel import resolve_accel_config, simulated_system_report
from repro.systems.base import ExecutionPlan, SystemReport
from repro.systems.registry import SystemOptions

#: Chip count when the caller does not pick one.
DEFAULT_CHIPS = 2

#: Inter-chip link bandwidth (GB/s per direction) — a contemporary
#: serdes-based package-to-package link (NVLink-class).
DEFAULT_LINK_BANDWIDTH_GBPS = 100.0

#: Per-exchange-round link latency (microseconds).
DEFAULT_LINK_LATENCY_US = 1.0


@dataclass(frozen=True)
class MultiChipConfig:
    """The multi-chip half of the system's configuration.

    ``chips``/``method``/``seed`` determine the partition (and therefore
    which shard subgraphs exist); the link fields price the boundary
    traffic.  All of it feeds the plan fingerprint.
    """

    chips: int = DEFAULT_CHIPS
    method: str = DEFAULT_METHOD
    seed: int = 0
    link_bandwidth_gbps: float = DEFAULT_LINK_BANDWIDTH_GBPS
    link_latency_us: float = DEFAULT_LINK_LATENCY_US

    def __post_init__(self) -> None:
        if self.chips < 1:
            raise ValueError(f"chips must be >= 1, got {self.chips}")
        validate_method(self.method)
        if self.seed < 0:
            raise ValueError(f"seed cannot be negative, got {self.seed}")
        if self.link_bandwidth_gbps <= 0:
            raise ValueError("link_bandwidth_gbps must be positive")
        if self.link_latency_us < 0:
            raise ValueError("link_latency_us cannot be negative")

    def partition_fingerprint(self) -> dict[str, Any]:
        """The partition stanza of the plan fingerprint (plain data)."""
        return {"chips": self.chips, "method": self.method,
                "seed": self.seed}

    def link_fingerprint(self) -> dict[str, Any]:
        """The link-model stanza of the plan fingerprint (plain data)."""
        return {
            "bandwidth_gbps": self.link_bandwidth_gbps,
            "latency_us": self.link_latency_us,
            "value_bytes": BYTES_PER_VALUE,
        }


class MultiChipSystem:
    """N partitioned accelerator chips joined by point-to-point links."""

    name = "multichip"

    def __init__(self, options: SystemOptions = SystemOptions()) -> None:
        self._config = resolve_accel_config(
            options.config_name, options.clock_ghz, options.noc_backend
        )
        self._multichip = options.multichip or MultiChipConfig()

    @property
    def config(self) -> AcceleratorConfig:
        """The per-chip accelerator configuration (identical chips)."""
        return self._config

    @property
    def multichip(self) -> MultiChipConfig:
        """The partition and link-model configuration."""
        return self._multichip

    def prepare(self, benchmark_key: str) -> ExecutionPlan:
        return ExecutionPlan(
            system=self.name,
            benchmark_key=benchmark_key,
            params=(
                ("config", config_fingerprint(self._config)),
                ("partition", self._multichip.partition_fingerprint()),
                ("link", self._multichip.link_fingerprint()),
            ),
        )

    def execute(
        self,
        plan: ExecutionPlan,
        cache: object = DEFAULT_CACHE,
    ) -> SystemReport:
        mc = self._multichip
        benchmark_key = plan.benchmark_key
        if mc.chips == 1:
            report = simulated_system_report(
                self.name, benchmark_key, self._config, cache
            )
            report.breakdown.update(
                chips=1.0,
                compute_ms=report.latency_ms,
                communication_ms=0.0,
                communication_mb=0.0,
                cut_edges=0.0,
                halo_nodes=0.0,
            )
            return report

        from repro.eval.accelerator import run_config
        from repro.models.registry import benchmark_by_key, benchmark_workload
        from repro.partition.comm import aggregation_ops, halo_volume_bytes
        from repro.partition.shards import partition_benchmark

        partition = partition_benchmark(
            benchmark_key, mc.chips, mc.method, mc.seed
        )
        reports = [
            run_config(benchmark_key, self._config, cache=cache,
                       shard=partition.spec(index))
            for index in range(mc.chips)
        ]
        compute_ms = max(report.latency_ms for report in reports)

        halo = partition.total_halo_nodes
        comm_bytes = 0
        comm_ms = 0.0
        if halo > 0:
            workload = benchmark_workload(benchmark_by_key(benchmark_key))
            for op in aggregation_ops(workload):
                layer_bytes = halo_volume_bytes(partition, op.width) * op.count
                comm_bytes += layer_bytes
                comm_ms += (
                    layer_bytes / (mc.link_bandwidth_gbps * 1e9) * 1e3
                    + op.count * mc.link_latency_us * 1e-3
                )

        breakdown: dict[str, float] = {
            "chips": float(mc.chips),
            "compute_ms": compute_ms,
            "communication_ms": comm_ms,
            "communication_mb": comm_bytes / 1e6,
            "cut_edges": float(partition.total_cut_edges),
            "halo_nodes": float(halo),
            "edge_cut_fraction": partition.edge_cut_fraction,
            "balance": partition.balance,
            "dram_mb": sum(r.dram_bytes for r in reports) / 1e6,
        }
        for index, report in enumerate(reports):
            breakdown[f"shard{index}_ms"] = report.latency_ms
        return SystemReport(
            system=self.name,
            benchmark=benchmark_key,
            latency_ms=compute_ms + comm_ms,
            breakdown=breakdown,
            detail=None,
        )
