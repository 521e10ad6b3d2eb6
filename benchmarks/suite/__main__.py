"""Benchmark entry point.

Run from the checkout root::

    python -m benchmarks.suite --workload paper-packet --seed 0
    python -m benchmarks.suite --workload dse-cache --seed 3 --trace 1
    python -m benchmarks.suite --seed 0 --output runs.jsonl   # all four
    python -m benchmarks.suite compare parent.jsonl change.jsonl

Every workload runs in fresh worker processes (:mod:`.worker`), so the
set-up time includes interpreter start and imports.  This process never
imports ``repro``.  It prints each metric with its unit, then, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  It exits 1 when any output was wrong and 2 when the
checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from benchmarks.suite import ROOT, WORKDIR
from benchmarks.suite.metrics import end_to_end, load_spec, with_units
from benchmarks.suite.workloads import WORKLOADS

#: Set-up is measured this many times per untraced run (the run's own
#: worker plus set-up-only workers); the median is reported.  The
#: set-up-only workers run side by side, one per core of a 2-core host,
#: to keep a driver's full set of runs within its time cap.
SETUP_SAMPLES = 3

#: A run must finish within 180 s; workers are killed at this deadline.
DEADLINE_S = 170.0


def worker_env(scratch: Path) -> dict[str, str]:
    """The environment of every worker: this checkout's sources with
    bytecode caching on (as after an install), no ``REPRO_*`` overrides,
    caches and temporary files in the worker's scratch directory,
    single-threaded numeric libraries."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        PYTHONHASHSEED="0",
        REPRO_CACHE_DIR=str(scratch / "default-cache"),
        TMPDIR=str(scratch / "tmp"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(specs: list[dict[str, Any]], deadline: float
          ) -> list[dict[str, Any]]:
    """Run workers side by side to completion and return their results;
    their output goes to our stderr."""
    workers = []
    try:
        for index, spec in enumerate(specs):
            tag = (f"{spec['workload']}-{spec['mode']}-{os.getpid()}-"
                   f"{time.time_ns()}-{index}")
            scratch = WORKDIR / tag
            (scratch / "tmp").mkdir(parents=True)
            spec = {**spec, "scratch": str(scratch),
                    "result": str(WORKDIR / f"{tag}.json"),
                    "t0": time.monotonic()}
            workers.append((spec, subprocess.Popen(
                [sys.executable, "-m", "benchmarks.suite.worker",
                 json.dumps(spec)],
                cwd=ROOT, env=worker_env(scratch), stdout=sys.stderr,
                start_new_session=True,
            )))
        codes = []
        for _spec, process in workers:
            try:
                codes.append(process.wait(
                    timeout=max(1.0, deadline - time.monotonic())))
            except subprocess.TimeoutExpired:
                codes.append(None)
    finally:
        for spec, process in workers:
            # A worker's pool processes share its session: none may
            # outlive it.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            shutil.rmtree(spec["scratch"], ignore_errors=True)
    try:
        results = []
        for (spec, _process), code in zip(workers, codes):
            result_path = Path(spec["result"])
            what = f"{spec['workload']} {spec['mode']} worker"
            if code is None:
                raise RuntimeError(f"{what} passed the {DEADLINE_S:g} s "
                                   f"deadline")
            if code != 0 or not result_path.exists():
                raise RuntimeError(f"{what} exited with status {code}")
            results.append(json.loads(result_path.read_text(encoding="utf-8")))
        return results
    finally:
        for spec, _process in workers:
            Path(spec["result"]).unlink(missing_ok=True)


def run_workload(name: str, args: argparse.Namespace, spec_doc: dict[str, Any]
                 ) -> dict[str, Any]:
    """Measure one workload; returns the record written to ``--output``."""
    deadline = time.monotonic() + DEADLINE_S
    base = {"workload": name, "seed": args.seed, "seconds": args.seconds}
    started = time.monotonic()
    if args.trace:
        trace_dir = Path(args.trace_dir) / f"{name}-seed{args.seed}"
        (result,) = spawn([{**base, "mode": "trace",
                            "trace_dir": str(trace_dir.resolve())}], deadline)
        metrics = with_units(result["per_layer"], spec_doc["per_layer"])
        print(f"{name}: trace written to {trace_dir}; per-layer self times "
              f"sum to {100 * result['self_sum_share']:.1f}% of the traced "
              f"wall time", file=sys.stderr)
    else:
        (result,) = spawn([{**base, "mode": "run"}], deadline)
        extra = spawn([{**base, "mode": "setup"}] * (SETUP_SAMPLES - 1),
                      deadline)
        setups = [result["setup_s"]] + [r["setup_s"] for r in extra]
        result["raw"]["setup_wall_s"] = [result["raw"]["setup_wall_s"]] + [
            r["setup_wall_s"] for r in extra]
        metrics = with_units(end_to_end(result, setups),
                             spec_doc["end_to_end"])
    for failure in result["failures"]:
        print(f"{name}: FAILED {failure}", file=sys.stderr)
    return {
        **base,
        "trace": args.trace,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": result["failed"] / max(1, result["attempted"]),
        "wall_s": time.monotonic() - started,
        "metrics": metrics,
        "raw": result.get("raw", {}),
        "simulated": result.get("simulated", {}),
    }


def parse_args(argv: list[str], spec_doc: dict[str, Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite",
        description="Measure the simulator on its benchmark workloads "
                    "(see benchmarks/suite/README.md); "
                    "'compare A.jsonl B.jsonl' compares two sets of runs.",
    )
    parser.add_argument("--workload", nargs="+", choices=list(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (inputs only)")
    parser.add_argument("--seconds", type=float,
                        default=spec_doc["run_seconds"],
                        help="cold-stage budget: whole passes while the "
                             "next one fits, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--trace-dir", default=str(WORKDIR / "trace"),
                        help="where a traced run writes trace.json, "
                             "layers.json and ledger.json")
    parser.add_argument("--output", help="append one JSON line per workload")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        from benchmarks.suite.compare import main as compare_main

        return compare_main(argv[1:])
    spec_doc = load_spec()
    args = parse_args(argv, spec_doc)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2

    records = []
    for name in args.workload:
        try:
            record = run_workload(name, args, spec_doc)
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        records.append(record)
        if args.output:
            with open(args.output, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
        for metric, entry in record["metrics"].items():
            print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}")
        print(f"{name}  attempted = {record['attempted']}, failed = "
              f"{record['failed']}, error_rate = {record['error_rate']:.6g}")

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": entry
                   for r in records for name, entry in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
