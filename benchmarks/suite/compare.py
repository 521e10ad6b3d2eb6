"""``python -m benchmarks.suite compare PARENT.jsonl CHANGE.jsonl``.

Both files hold run records appended by ``--output`` (one JSON line per
workload run; run each side at least ten times, alternating which side
runs first).  For every workload and metric present on both sides this
prints each side's median and quartiles and a verdict, following the
``choosing-metrics`` rules for a small sandbox:

improved
    the change wins at least nine tenths of the pairs (runs paired by
    seed, ties counting for neither) and the medians differ by more than
    the parent's own quartile spread;
worse
    the change's median is worse than the parent's by more than the
    metric's bound in ``BENCHMARK.json``;
unresolved
    the parent's spread is wider than the bound and not every run of the
    change reads better than every run of the parent;
no worse
    anything else.

Per-layer metrics have no bound: they read improved, worse (the mirror
of the improved rule) or ``-``.  Exits 1 when any verdict is worse.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles
from typing import Any

from benchmarks.suite.metrics import load_spec


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float],
            pairs: list[tuple[float, float]], better: str,
            bound: float | None) -> str:
    """The comparison verdict of one metric on one workload."""
    sign = 1 if better == "higher" else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = median(change)
    spread = p_q3 - p_q1

    def clear_win(direction: int) -> bool:
        """Direction +1: the change wins 9/10 of pairs by a margin."""
        wins = sum(1 for a, b in pairs if direction * sign * (b - a) > 0)
        return (bool(pairs) and wins >= 0.9 * len(pairs)
                and direction * sign * (c_med - p_med) > spread)

    if clear_win(+1):
        return "improved"
    if bound is None:
        return "worse" if clear_win(-1) else "-"
    scale = abs(p_med) or 1.0
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if spread / scale > bound and not all_better:
        return "unresolved"
    if sign * (p_med - c_med) / scale > bound:
        return "worse"
    return "no worse"


def load_runs(path: Path) -> dict[tuple[str, str], dict[int, float]]:
    """``(workload, metric) -> {seed: value}`` from a run-record file."""
    runs: dict[tuple[str, str], dict[int, float]] = defaultdict(dict)
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        for name, entry in record["metrics"].items():
            runs[(record["workload"], name)][record["seed"]] = entry["value"]
    return runs


def compare(parent_path: Path, change_path: Path,
            spec: dict[str, Any]) -> list[dict[str, Any]]:
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_runs(parent_path), load_runs(change_path)
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        metric = declared.get(name)
        if metric is None:
            continue
        a, b = parent[key], change[key]
        common = sorted(set(a) & set(b))
        pairs = [(a[seed], b[seed]) for seed in common]
        rows.append({
            "workload": workload,
            "metric": name,
            "unit": metric["unit"],
            "parent": quartiles(sorted(a.values())),
            "change": quartiles(sorted(b.values())),
            "runs": (len(a), len(b)),
            "verdict": verdict(list(a.values()), list(b.values()), pairs,
                               metric["better"], metric.get("bound")),
        })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.suite compare PARENT.jsonl "
              "CHANGE.jsonl", file=sys.stderr)
        return 2
    rows = compare(Path(argv[0]), Path(argv[1]), load_spec())
    print(f"{'workload':<17}{'metric':<28}{'parent q1/med/q3':>32}"
          f"{'change q1/med/q3':>32}  runs   verdict")
    for row in rows:
        a = "/".join(f"{v:.4g}" for v in row["parent"])
        b = "/".join(f"{v:.4g}" for v in row["change"])
        print(f"{row['workload']:<17}{row['metric']:<28}{a:>32}{b:>32}"
              f"  {row['runs'][0]}:{row['runs'][1]:<4} {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
