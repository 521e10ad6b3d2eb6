"""One workload in one fresh process.

``python -m benchmarks.suite.worker SPEC_JSON`` — started by
:mod:`benchmarks.suite.__main__`, never by hand.  ``SPEC_JSON`` names
the workload, seed, seconds, mode, the parent's spawn time (monotonic
clock) and the file to write the result to.  Modes:

``setup``
    set up, report the seconds from process spawn to the first timed
    operation, exit;
``run``
    set up, then time the cold passes and warm replays with tracing off,
    check every output, report throughputs, peak RSS and failures;
    every timing is normalized to nominal host speed by a
    :class:`~benchmarks.suite.speed.SpeedProbe` active throughout;
``trace``
    set up under tracing; time one cold pass with only GNN-layer spans
    (host time per layer for the ledger, no per-message counters) and
    one fully traced (the difference is the tracing overhead); replay
    warm under tracing; write the trace files and report the per-layer
    values.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any

from benchmarks.suite.speed import SpeedProbe
from benchmarks.suite.workloads import WORKLOADS, Workload

#: A traced run replays warm this many times less often than a timed one.
TRACED_WARM_SHARE = 4


def cold_stage(workload: Workload, seconds: float, probe: SpeedProbe
               ) -> tuple[list[float], list[float]]:
    """Whole cold passes while the next one would still end within
    ``seconds``, at least one; returns points/s of each pass, normalized
    to nominal host speed and raw."""
    rates: list[float] = []
    raw: list[float] = []
    spent = 0.0
    while True:
        mark = probe.mark()
        start = time.perf_counter()
        points = workload.cold_pass()
        elapsed = time.perf_counter() - start - probe.stolen(mark)
        raw.append(points / elapsed)
        rates.append(raw[-1] * probe.slowdown(mark))
        spent += elapsed
        if spent + elapsed > seconds:
            return rates, raw


def warm_stage(workload: Workload, probe: SpeedProbe, share: int = 1
               ) -> tuple[float, float]:
    """The fixed number of warm replays (divided by ``share``), timed as
    one block so that the time and the speed samples cover the same
    interval; returns points/s normalized to nominal host speed and raw."""
    workload.prepare_warm()
    mark = probe.mark()
    start = time.perf_counter()
    replays = workload.warm_replays // share
    points = sum(workload.warm_replay() for _ in range(replays))
    raw = points / (time.perf_counter() - start - probe.stolen(mark))
    return raw * probe.slowdown(mark), raw


def outcome(workload: Workload) -> dict[str, Any]:
    return {"attempted": workload.attempted,
            "failed": len(workload.failures),
            "failures": workload.failures[:20]}


def run(workload: Workload, spec: dict[str, Any], scratch: Path
        ) -> dict[str, Any]:
    with SpeedProbe(scratch) as probe:
        workload.setup()
        setup_wall = time.monotonic() - spec["t0"]
        setup_s = (setup_wall - probe.stolen_s) / probe.slowdown()
        if spec["mode"] == "setup":
            return {"setup_s": setup_s, "setup_wall_s": setup_wall}
        cold, cold_raw = cold_stage(workload, spec["seconds"], probe)
        warm, warm_raw = warm_stage(workload, probe)
    workload.check()
    return {
        "setup_s": setup_s,
        "points_per_s": median(cold),
        "warm_points_per_s": warm,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw": {"setup_wall_s": setup_wall, "points_per_s": median(cold_raw),
                "warm_points_per_s": warm_raw, "cold_passes": len(cold),
                "slowdown": probe.slowdown()},
        "simulated": workload.simulated(),
        **outcome(workload),
    }


def trace(workload: Workload, spec: dict[str, Any], scratch: Path
          ) -> dict[str, Any]:
    from benchmarks.suite.metrics import per_layer
    from benchmarks.suite.tracing import (
        Tracer,
        format_layer_table,
        instrument,
        write_trace,
    )

    tracer = Tracer(worker_dir=scratch / "workers")
    layers = Tracer(worker_dir=scratch / "layer-workers")
    for directory in (tracer.worker_dir, layers.worker_dir):
        directory.mkdir(parents=True)
    patches = instrument(tracer)
    layer_patches = instrument(layers, layers_only=True)

    patches.apply()
    start = time.perf_counter()
    with tracer.span("bench.setup"):
        workload.setup()
    wall = time.perf_counter() - start
    patches.remove()

    layer_patches.apply()
    start = time.perf_counter()
    workload.cold_pass()
    untraced = time.perf_counter() - start
    layer_patches.remove()

    patches.apply()
    start = time.perf_counter()
    with tracer.span("bench.run"):
        workload.cold_pass()
        traced = time.perf_counter() - start
        # Warm lookups only feed per-layer cache counters here, and the
        # probe is inactive (no samples).
        warm_stage(workload, SpeedProbe(), share=TRACED_WARM_SHARE)
    wall += time.perf_counter() - start
    patches.remove()

    tracer.merge_workers()
    layers.merge_workers()
    workload.check()
    values = per_layer(tracer, layers, workload.simulated(),
                       100 * (traced - untraced) / untraced)
    summary = write_trace(Path(spec["trace_dir"]), tracer, layers, wall,
                          values)
    print(format_layer_table(summary), file=sys.stderr)
    return {"per_layer": values, "self_sum_share": summary["self_sum_share"],
            "traced_wall_s": wall, **outcome(workload)}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    scratch = Path(spec["scratch"])  # created and removed by the parent
    workload = WORKLOADS[spec["workload"]](spec["seed"], scratch)
    if spec["mode"] == "trace":
        result = trace(workload, spec, scratch)
    else:
        result = run(workload, spec, scratch)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
