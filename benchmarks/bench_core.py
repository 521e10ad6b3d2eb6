"""Core-simulator performance harness for the kernel loop.

Two entry points:

* **Script mode** — ``PYTHONPATH=src python benchmarks/bench_core.py``
  times the full 36-point Figure 8 grid (``--jobs 1``, cache bypassed,
  programs pre-compiled so only simulation is on the clock), times the
  4-point smoke subset, collects the per-handler top-10 from the
  :class:`~repro.obs.profiler.KernelProfiler` on a representative
  point, and writes the whole measurement to ``BENCH_fig8.json`` at the
  repository root.  Run it after any kernel or engine change and commit
  the refreshed numbers.

* **Pytest mode** — ``pytest benchmarks/bench_core.py -m perf`` runs
  the ``perf-smoke`` guard: the same 4-point subset must finish within
  the checked-in budget (the last measured time plus the 25% regression
  allowance, scaled by ``$REPRO_PERF_SCALE`` for slower machines).

The smoke subset deliberately uses the two cheapest benchmarks so the
guard costs seconds, not minutes; the full grid (MPNN included) is what
``BENCH_fig8.json`` reports and what the nightly lane re-measures.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

#: Where the checked-in measurement lives (repository root).
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fig8.json"

#: The perf-smoke subset: cheapest two benchmarks, one config, both
#: Figure 8 clocks — four simulations, a few seconds end to end.
SMOKE_BENCHMARKS = ("gcn-cora", "gcn-citeseer")
SMOKE_CONFIGS = ("CPU iso-BW",)
SMOKE_CLOCKS = (1.2, 2.4)

#: Regression allowance encoded into the stored budget: a future run
#: fails the guard once it is more than 25% slower than the
#: measurement that produced the file.
REGRESSION_ALLOWANCE = 1.25

#: Environment knob for machines slower than the one that produced the
#: checked-in numbers (CI runners vary); scales the budget only.
SCALE_ENV = "REPRO_PERF_SCALE"


def _points(benchmarks=None, configs=None, clocks=None):
    from repro.exp.runner import figure8_points

    return figure8_points(
        benchmarks=benchmarks, configs=configs,
        clocks=clocks if clocks is not None else (1.2, 2.4),
    )


def _warm_programs(points) -> None:
    from repro.eval.accelerator import _compiled_program

    for key in dict.fromkeys(p.benchmark_key for p in points):
        _compiled_program(key)


def _time_points(points) -> float:
    """Wall-clock seconds to simulate ``points`` serially, uncached."""
    from repro.exp import cache as result_cache
    from repro.exp.runner import run_sweep_detailed

    _warm_programs(points)
    with result_cache.disabled():
        start = time.perf_counter()
        outcome = run_sweep_detailed(points, jobs=1, cache=None)
        elapsed = time.perf_counter() - start
    outcome.raise_on_failure()
    return elapsed


def smoke_points():
    return _points(benchmarks=SMOKE_BENCHMARKS, configs=SMOKE_CONFIGS,
                   clocks=SMOKE_CLOCKS)


def hottest_handlers(benchmark: str = "gcn-pubmed", top: int = 10):
    """Per-handler top-N wall-clock attribution on one representative
    point, via the kernel profiler (stack samples of the kernel loop;
    host time only)."""
    from repro.eval.accelerator import _compiled_program, resolve_benchmark_config
    from repro.obs import Observer
    from repro.runtime.engine import simulate

    _, config = resolve_benchmark_config(benchmark)
    observer = Observer(timeline=False, phases=False)
    simulate(_compiled_program(benchmark), config, observer=observer)
    profile = observer.profiler.profile()
    return {
        "benchmark": benchmark,
        "events": profile.events,
        "events_per_sec": round(profile.events_per_sec),
        "samples": profile.samples,
        "handlers": [
            {"owner": owner, "wall_ms": round(wall_s * 1e3, 2),
             "samples": samples}
            for owner, wall_s, samples in profile.hottest_handlers(top)
        ],
    }


# -- perf-smoke guard (pytest) ----------------------------------------------

import pytest  # noqa: E402


@pytest.mark.perf
def test_perf_smoke_within_budget():
    """The 4-point smoke subset must beat the checked-in budget.

    The budget is the measurement that produced ``BENCH_fig8.json``
    plus 25%; ``$REPRO_PERF_SCALE`` (default 1.0) rescales it for
    hardware slower than the measuring machine.
    """
    if not RESULT_PATH.exists():
        pytest.skip("BENCH_fig8.json not generated yet")
    recorded = json.loads(RESULT_PATH.read_text())
    budget = recorded["smoke"]["budget_s"]
    scale = float(os.environ.get(SCALE_ENV, "1.0"))
    elapsed = _time_points(smoke_points())
    assert elapsed <= budget * scale, (
        f"perf-smoke regression: {elapsed:.2f} s for the "
        f"{len(smoke_points())}-point subset exceeds the budget of "
        f"{budget:.2f} s x {scale:g} (measured "
        f"{recorded['smoke']['elapsed_s']:.2f} s + 25% allowance); "
        f"if the slowdown is intended, regenerate BENCH_fig8.json"
    )


# -- script mode -------------------------------------------------------------


def main(argv=None) -> None:
    import argparse

    parser = argparse.ArgumentParser(
        description="measure the core-simulator wall clock and write "
                    "BENCH_fig8.json"
    )
    parser.add_argument(
        "--baseline", type=float, default=None, metavar="S",
        help="seed (pre-fast-path) sweep seconds measured on this same "
             "machine; recorded for the before/after comparison "
             "(omitted: the previously recorded baseline is kept)",
    )
    args = parser.parse_args(argv)

    smoke = smoke_points()
    full = _points()
    print(f"timing {len(smoke)}-point smoke subset ...")
    smoke_s = _time_points(smoke)
    print(f"  {smoke_s:.2f} s")
    print(f"timing {len(full)}-point Figure 8 grid (jobs=1, uncached) ...")
    full_s = _time_points(full)
    print(f"  {full_s:.2f} s")
    print("profiling per-handler hot spots ...")
    handlers = hottest_handlers()

    previous = {}
    if RESULT_PATH.exists():
        previous = json.loads(RESULT_PATH.read_text()).get(
            "figure8_sweep", {}
        )
    baseline = (
        args.baseline if args.baseline is not None
        else previous.get("seed_elapsed_s")
    )

    payload = {
        "description": (
            "Wall-clock of the Figure 8 sweep (--jobs 1, result cache "
            "bypassed, programs pre-compiled); seed_elapsed_s is the same "
            "grid on the same machine before the kernel fast path; "
            "regenerate with: PYTHONPATH=src python benchmarks/bench_core.py"
        ),
        "figure8_sweep": {
            "points": len(full),
            "elapsed_s": round(full_s, 2),
            "seed_elapsed_s": baseline,
            "speedup_vs_seed": (
                round(baseline / full_s, 2) if baseline else None
            ),
            "previous_elapsed_s": previous.get("elapsed_s"),
        },
        "smoke": {
            "points": len(smoke),
            "benchmarks": list(SMOKE_BENCHMARKS),
            "elapsed_s": round(smoke_s, 2),
            "budget_s": round(smoke_s * REGRESSION_ALLOWANCE, 2),
        },
        "kernel_profile": handlers,
        "cpu": os.cpu_count(),
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
