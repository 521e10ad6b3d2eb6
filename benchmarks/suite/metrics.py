"""Metric names, units and bounds (from ``BENCHMARK.json``) and their values.

``BENCHMARK.json`` at the checkout root is the single declaration of
every metric; this module computes values under exactly those names and
refuses to print a set that differs from it.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median
from typing import Any

from benchmarks.suite import ROOT
from benchmarks.suite.tracing import ATTRS, END, NAME, START, Tracer
from benchmarks.suite.workloads import SIMULATED

SPEC_PATH = ROOT / "BENCHMARK.json"

#: The paper's Table VII benchmark keys (per-benchmark kernel metrics).
PAPER_BENCHMARKS = ("gcn-cora", "gcn-citeseer", "gcn-pubmed", "gat-cora",
                    "mpnn-qm9_1000", "pgnn-dblp_1")


def load_spec(path: Path = SPEC_PATH) -> dict[str, Any]:
    return json.loads(path.read_text(encoding="utf-8"))


def with_units(values: dict[str, float], declared: list[dict[str, Any]]
               ) -> dict[str, dict[str, Any]]:
    """``{name: {"value", "unit"}}`` in declaration order; the names must
    be exactly the declared ones."""
    names = [metric["name"] for metric in declared]
    if set(values) != set(names):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise ValueError(f"metrics differ from BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in declared}


def end_to_end(run: dict[str, Any], setup_samples: list[float]
               ) -> dict[str, float]:
    """End-to-end values of one untraced run plus its set-up samples."""
    return {
        "setup_s": median(setup_samples),
        "points_per_s": run["points_per_s"],
        "warm_points_per_s": run["warm_points_per_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(tracer: Tracer, layers: Tracer, simulated: dict[str, float],
              overhead_pct: float) -> dict[str, float]:
    """Per-layer values of one traced run.

    ``*_ms`` values are self times in ``tracer`` (span time minus covered
    child time), summed over the parent process and its pool workers.
    ``sim.*`` values come from ``layers``, the cold pass traced at GNN
    layer granularity only: ``sim.run_ms`` is the whole host time of the
    ``Simulator.run`` calls, which ``sim.events_per_s`` divides.
    """
    parent = tracer.layer_table()
    workers = tracer.layer_table(workers=True)
    notes = tracer.all_notes()

    def rows(name: str) -> list[dict[str, float]]:
        return [table[name] for table in (parent, workers) if name in table]

    def self_ms(*names: str) -> float:
        return sum(row["self_s"] for name in names for row in rows(name)) * 1e3

    def calls(name: str) -> float:
        return sum(row["calls"] for row in rows(name))

    run_s = {benchmark: 0.0 for benchmark in PAPER_BENCHMARKS}
    events = {benchmark: 0 for benchmark in PAPER_BENCHMARKS}
    total_s = total_events = 0.0
    for span in layers.all_spans():
        if span[NAME] != "sim.run":
            continue
        attrs = span[ATTRS]
        elapsed = span[END] - span[START]
        total_s += elapsed
        total_events += attrs["events"]
        if attrs.get("benchmark") in run_s:
            run_s[attrs["benchmark"]] += elapsed
            events[attrs["benchmark"]] += attrs["events"]

    lookups = notes["exp.cache.lookups"]
    values = {
        "sim.run_ms": total_s * 1e3,
        "sim.events": total_events,
        "sim.events_per_s": total_events / total_s if total_s else 0.0,
        **{f"sim.run_ms.{b}": run_s[b] * 1e3 for b in PAPER_BENCHMARKS},
        **{f"sim.events.{b}": events[b] for b in PAPER_BENCHMARKS},
        "runtime.engine_self_ms": self_ms("runtime.engine"),
        "accel.build_ms": self_ms("accel.build"),
        "noc.delivery_ms": self_ms("noc.delivery"),
        "noc.deliveries": calls("noc.delivery"),
        "accel.memory_ms": self_ms("accel.memory"),
        "accel.memory_calls": calls("accel.memory"),
        "runtime.compile_ms": self_ms("runtime.compile"),
        "runtime.tasks": notes["runtime.tasks"],
        "graphs.load_ms": self_ms("graphs.load"),
        "models.ir_ms": self_ms("models.ir"),
        "exp.cache.lookup_ms": self_ms("exp.cache.lookup"),
        "exp.cache.lookups": lookups,
        "exp.cache.hit_ratio": notes["exp.cache.hits"] / lookups if lookups else 0.0,
        "exp.cache.store_ms": self_ms("exp.cache.store"),
        "exp.runner.key_ms": self_ms("exp.runner.key"),
        "exp.runner.serialize_ms": self_ms("exp.runner.serialize"),
        "exp.runner.self_ms": self_ms("exp.runner.sweep", "exp.runner.point"),
        "exp.runner.attempts": calls("exp.runner.point"),
        "space.sample_ms": self_ms("space.sample"),
        "dse.self_ms": self_ms("dse"),
        "systems.prepare_ms": self_ms("systems.prepare"),
        **{f"systems.execute_ms.{s}": self_ms(f"systems.execute.{s}")
           for s in ("cpu", "gpu", "eyeriss")},
        "systems.multichip_ms": self_ms("systems.multichip"),
        "partition.partition_ms": self_ms("partition.partition"),
        "partition.shard_compile_ms": self_ms("partition.shard_compile"),
        "noc.packets": notes["noc.packets"],
        "noc.flit_hops": notes["noc.flit_hops"],
        "trace.overhead_pct": overhead_pct,
        **{f"runtime.latency_ms.{b}": 0.0 for b in PAPER_BENCHMARKS},
        **dict.fromkeys(SIMULATED, 0.0),
    }
    values.update(simulated)
    return values
