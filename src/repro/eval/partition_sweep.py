"""Multi-chip scaling curves: speedup and communication volume vs chips.

The driver behind ``python -m repro partition-sweep``: for one benchmark
it prices the ``multichip`` system at each requested chip count and
returns the scaling curve — per-chip-count latency, speedup over the
single chip, and the inter-chip communication volume of the partition.

Shard simulations are warmed *first* through the experiment harness
(:func:`repro.exp.runner.run_sweep` over shard-carrying
:class:`~repro.exp.runner.Point`\\ s), so ``jobs > 1`` simulates every
shard of every chip count concurrently with full retry/timeout
protection; the multi-chip system then composes its reports entirely
from cache hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.accel.config import AcceleratorConfig
from repro.exp.cache import DEFAULT_CACHE
from repro.exp.runner import Point, run_sweep
from repro.partition.methods import DEFAULT_METHOD, validate_method
from repro.systems.accel import (
    DEFAULT_CLOCK_GHZ,
    DEFAULT_CONFIG_NAME,
    resolve_accel_config,
)
from repro.systems.base import SystemReport

#: Version stamp of the JSON document ``scaling_document`` emits.
SCALING_SCHEMA_VERSION = 1

#: Chip counts swept when the caller does not pick any.
DEFAULT_CHIP_COUNTS: tuple[int, ...] = (1, 2, 4, 8)


@dataclass(frozen=True)
class ScalingPoint:
    """One chip count's position on the scaling curve."""

    chips: int
    latency_ms: float
    speedup: float
    compute_ms: float
    communication_ms: float
    communication_mb: float
    cut_edges: int
    halo_nodes: int
    balance: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "chips": self.chips,
            "latency_ms": self.latency_ms,
            "speedup": self.speedup,
            "compute_ms": self.compute_ms,
            "communication_ms": self.communication_ms,
            "communication_mb": self.communication_mb,
            "cut_edges": self.cut_edges,
            "halo_nodes": self.halo_nodes,
            "balance": self.balance,
        }


def resolve_sweep_config(
    config_name: str = DEFAULT_CONFIG_NAME,
    clock_ghz: float = DEFAULT_CLOCK_GHZ,
    noc_backend: str | None = None,
) -> AcceleratorConfig:
    """The per-chip accelerator configuration of a scaling sweep,
    resolved exactly like the ``multichip`` backend resolves it."""
    return resolve_accel_config(config_name, clock_ghz, noc_backend)


def scaling_points(
    benchmark_key: str,
    config: AcceleratorConfig,
    chip_counts: Sequence[int],
    method: str = DEFAULT_METHOD,
    seed: int = 0,
) -> list[Point]:
    """Every simulation the sweep needs, as harness points.

    One whole-graph point (the speedup baseline — also the ``chips=1``
    curve point) plus one shard point per (chip count > 1, shard).
    """
    from repro.partition.core import ShardSpec

    points = [Point(benchmark_key, config)]
    for chips in chip_counts:
        for index in range(chips if chips > 1 else 0):
            spec = ShardSpec(chips=chips, index=index, method=method,
                             seed=seed)
            points.append(Point(benchmark_key, config, shard=spec))
    return points


def partition_scaling(
    benchmark_key: str,
    chip_counts: Sequence[int] = DEFAULT_CHIP_COUNTS,
    method: str = DEFAULT_METHOD,
    seed: int = 0,
    config_name: str = DEFAULT_CONFIG_NAME,
    clock_ghz: float = DEFAULT_CLOCK_GHZ,
    noc_backend: str | None = None,
    link_bandwidth_gbps: float | None = None,
    link_latency_us: float | None = None,
    jobs: int = 1,
    cache: object = DEFAULT_CACHE,
    progress: Callable[[Point, Any, bool], None] | None = None,
) -> list[ScalingPoint]:
    """The scaling curve of one benchmark across ``chip_counts``.

    Chip counts are swept in ascending order after deduplication;
    ``chips=1`` (whether or not requested) anchors ``speedup = 1.0``.
    ``jobs > 1`` parallelizes the underlying shard simulations.
    """
    from repro.models.registry import resolve_benchmark_key
    from repro.systems import run_system
    from repro.systems.multichip import MultiChipConfig
    from repro.systems.registry import SystemOptions

    validate_method(method)
    benchmark_key = resolve_benchmark_key(benchmark_key)
    counts = sorted(set(int(c) for c in chip_counts))
    if not counts:
        raise ValueError("need at least one chip count")
    if counts[0] < 1:
        raise ValueError(f"chip counts must be >= 1, got {counts[0]}")
    config = resolve_sweep_config(config_name, clock_ghz, noc_backend)

    # Warm every needed simulation through the harness (parallel-safe).
    run_sweep(
        scaling_points(benchmark_key, config, counts, method, seed),
        jobs=jobs, cache=cache, progress=progress,
    )

    link_overrides = {}
    if link_bandwidth_gbps is not None:
        link_overrides["link_bandwidth_gbps"] = link_bandwidth_gbps
    if link_latency_us is not None:
        link_overrides["link_latency_us"] = link_latency_us

    def report_for(chips: int) -> SystemReport:
        options = SystemOptions(
            config_name=config_name,
            clock_ghz=clock_ghz,
            noc_backend=noc_backend,
            multichip=MultiChipConfig(chips=chips, method=method, seed=seed,
                                      **link_overrides),
        )
        return run_system("multichip", benchmark_key, options=options,
                          cache=cache)

    base_ms = report_for(1).latency_ms
    curve = []
    for chips in counts:
        report = report_for(chips)
        b = report.breakdown
        curve.append(
            ScalingPoint(
                chips=chips,
                latency_ms=report.latency_ms,
                speedup=base_ms / report.latency_ms,
                compute_ms=b["compute_ms"],
                communication_ms=b["communication_ms"],
                communication_mb=b["communication_mb"],
                cut_edges=int(b["cut_edges"]),
                halo_nodes=int(b["halo_nodes"]),
                balance=b.get("balance", 1.0),
            )
        )
    return curve


def scaling_document(
    benchmark_key: str,
    curve: Sequence[ScalingPoint],
    method: str,
    seed: int,
    config_name: str,
    clock_ghz: float,
    noc_backend: str | None,
    link_bandwidth_gbps: float | None = None,
    link_latency_us: float | None = None,
) -> dict[str, Any]:
    """The JSON-ready document ``partition-sweep`` emits."""
    from repro.systems.multichip import (
        DEFAULT_LINK_BANDWIDTH_GBPS,
        DEFAULT_LINK_LATENCY_US,
    )

    return {
        "schema": SCALING_SCHEMA_VERSION,
        "benchmark": benchmark_key,
        "method": method,
        "seed": seed,
        "config": config_name,
        "clock_ghz": clock_ghz,
        "noc_backend": noc_backend,
        "link": {
            "bandwidth_gbps": (
                DEFAULT_LINK_BANDWIDTH_GBPS
                if link_bandwidth_gbps is None else link_bandwidth_gbps
            ),
            "latency_us": (
                DEFAULT_LINK_LATENCY_US
                if link_latency_us is None else link_latency_us
            ),
        },
        "points": [point.to_dict() for point in curve],
    }
