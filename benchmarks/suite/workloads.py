"""The four workloads: what each runs, with which seed, and how it is checked.

Every workload is a closed loop from one process (the next point starts
only when the previous one is done); only ``systems-mix`` fans points
out to a two-worker pool.  A workload has four stages, timed by
:mod:`benchmarks.suite.worker`:

``setup``
    imports, datasets, layer IR, compiled programs (and partitions);
``cold_pass``
    one pass over the points with no cached result to serve them;
``warm_replay``
    the same points answered from the on-disk result cache after the
    in-process memo is dropped, repeated ``warm_replays`` times (a
    fixed count, sized so the stage lasts about 2 s on a 2-core host);
``check``
    pinned digests for seed-free points, cold/warm byte identity for
    every point, and every status.

The seed reaches the workload only as the inputs it generates: the
order of the paper points, a DSE sample, a partition seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from statistics import mean
from typing import Any

from benchmarks.suite import digests

#: Table VI rows of the paper grid and the tile clock they run at.  One
#: row: GPU iso-BW runs the same kernel, engine and NoC code with other
#: bandwidths, and would double the cold pass of both paper workloads.
PAPER_CONFIGS = ("CPU iso-BW",)
PAPER_CLOCK_GHZ = 2.4

#: The paper's iso-bandwidth headline speedup at 2.4 GHz, against the
#: baseline system the row is normalized by (Table VII measurements).
PAPER_HEADLINES = {"CPU iso-BW": ("cpu", 18.0)}

#: Simulated per-layer values a workload may report; absent ones are 0.
SIMULATED = (
    "accel.gpe_util", "accel.dna_util", "accel.agg_util", "accel.bw_util",
    "partition.cut_edges", "dse.hypervolume", "headline_error_pct",
)


def permuted(items: list[Any], seed: int) -> list[Any]:
    """``items`` in a seed-determined order."""
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def utilizations(reports: list[Any]) -> dict[str, float]:
    """Mean Figure 10 utilizations over simulated accelerator reports."""
    if not reports:
        return {}
    return {
        "accel.gpe_util": mean(r.gpe_utilization for r in reports),
        "accel.dna_util": mean(r.dna_utilization for r in reports),
        "accel.agg_util": mean(r.agg_utilization for r in reports),
        "accel.bw_util": mean(r.bandwidth_utilization for r in reports),
    }


class Workload:
    """Common bookkeeping: scratch caches, attempts and failures."""

    name = ""
    warm_replays = 0

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failures: list[str] = []
        self._caches = 0
        self.cold: Any = None
        self.warm: Any = None
        self.cache: Any = None

    def fresh_cache(self) -> Any:
        """An empty on-disk result cache, also made the process default
        so that nothing a run stores can land outside the scratch dir."""
        from repro.exp.cache import ResultCache, clear_memo, set_default_cache

        self._caches += 1
        cache = ResultCache(self.scratch / f"cache-{self._caches}")
        set_default_cache(cache)
        clear_memo()
        return cache

    def fail(self, message: str) -> None:
        self.failures.append(message)

    # -- overridden per workload -------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def cold_pass(self) -> int:
        """Run one cold pass; returns the points it attempted."""
        raise NotImplementedError

    def prepare_warm(self) -> None:
        """Untimed: make the on-disk cache hold the cold results."""

    def warm_replay(self) -> int:
        """Serve every point from disk once; returns the points served."""
        raise NotImplementedError

    def cold_reports(self) -> list[tuple[Any, Any]]:
        """``(point, report)`` of the last cold pass, in point order."""
        return [(r.point, r.report) for r in self.cold.results]

    def warm_reports(self) -> list[tuple[Any, Any]]:
        """``(point, report)`` of the last warm replay, in point order."""
        return [(r.point, r.report) for r in self.warm.results]

    def pinned_points(self) -> list[Any]:
        """Points with a seed-free digest in ``digests.json``."""
        return []

    def simulated(self) -> dict[str, float]:
        return {}

    # -- shared checks -------------------------------------------------------

    def check_outcome(self, outcome: Any, stage: str, cached: bool) -> None:
        self.attempted += len(outcome.results)
        for result in outcome.results:
            if not result.ok or cached and result.status != "cached":
                self.fail(f"{stage}: {result.describe()}")

    def check_identity(self, pairs: list[tuple[str, Any, Any]]) -> None:
        """Cold and warm reports must serialize to the same bytes."""
        for label, cold, warm in pairs:
            if cold is None or warm is None:
                continue  # already counted as a failed point
            if digests.canonical(cold) != digests.canonical(warm):
                self.fail(f"cold/warm reports differ: {label}")

    def check_pinned(self) -> None:
        pinned = digests.pinned()
        wanted = self.pinned_points()
        for point, report in self.cold_reports():
            if point not in wanted or report is None:
                continue
            name = digests.point_id(point)
            if pinned.get(name) != digests.digest(report):
                self.fail(f"digest mismatch: {name}")

    def check(self) -> None:
        self.check_pinned()
        self.check_identity([
            (digests.point_id(point), cold, warm)
            for (point, cold), (_, warm)
            in zip(self.cold_reports(), self.warm_reports())
        ])


class PaperGrid(Workload):
    """Figure 8 at 2.4 GHz: six Table VII benchmarks at CPU iso-BW."""

    warm_replays = 2400

    def __init__(self, seed: int, scratch: Path, noc_backend: str) -> None:
        super().__init__(seed, scratch)
        self.noc_backend = noc_backend

    def setup(self) -> None:
        from repro.eval.accelerator import _compiled_program
        from repro.exp.runner import figure8_points

        grid = figure8_points(configs=PAPER_CONFIGS, clocks=(PAPER_CLOCK_GHZ,),
                              noc_backend=self.noc_backend)
        self.points = permuted(grid, self.seed)
        for key in dict.fromkeys(p.benchmark_key for p in grid):
            _compiled_program(key)
        for point in self.points:
            point.key  # layer-IR digests are part of set-up

    def cold_pass(self) -> int:
        from repro.exp.cache import clear_memo
        from repro.exp.runner import run_sweep_detailed

        clear_memo()
        self.cold = run_sweep_detailed(self.points, jobs=1, cache=None)
        self.check_outcome(self.cold, "cold", cached=False)
        return len(self.points)

    def prepare_warm(self) -> None:
        self.cache = self.fresh_cache()
        for result in self.cold.results:
            if result.ok:
                self.cache.put(result.point.key, result.report)

    def warm_replay(self) -> int:
        from repro.exp.cache import clear_memo
        from repro.exp.runner import run_sweep_detailed

        clear_memo()
        self.warm = run_sweep_detailed(self.points, jobs=1, cache=self.cache)
        self.check_outcome(self.warm, "warm", cached=True)
        return len(self.points)

    def pinned_points(self) -> list[Any]:
        return self.points

    def simulated(self) -> dict[str, float]:
        from repro.systems import run_system

        reports = [r for _, r in self.cold_reports() if r is not None]
        if len(reports) != len(self.points):
            return utilizations(reports)
        errors = []
        for config, (system, paper) in PAPER_HEADLINES.items():
            speedups = [
                run_system(system, r.point.benchmark_key, cache=None).latency_ms
                / r.report.latency_ms
                for r in self.cold.results if r.point.config.name == config
            ]
            errors.append(abs(mean(speedups) - paper) / paper)
        values = {
            f"runtime.latency_ms.{r.point.benchmark_key}": r.report.latency_ms
            for r in self.cold.results if r.point.config.name == PAPER_CONFIGS[0]
        }
        values["headline_error_pct"] = 100 * mean(errors)
        return {**values, **utilizations(reports)}


class PaperPacket(PaperGrid):
    """The headline run: kernel, engine and packet NoC do nearly all the
    work."""

    name = "paper-packet"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch, "packet")


class PaperAnalytical(PaperGrid):
    """The same points on the closed-form NoC, which does almost no work:
    a NoC-only change must move paper-packet and leave this unchanged."""

    name = "paper-analytical"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch, "analytical")


class DseCache(Workload):
    """A 32-point seeded random search of the hardware space on gcn-cora.

    Many small points (1-16 tile meshes) share one compiled program, so
    per-point overhead dominates: accelerator construction, key hashing
    and cache I/O.  The cold pass is the cache write path, the warm
    replays its read path.
    """

    name = "dse-cache"
    warm_replays = 300
    BENCHMARK = "gcn-cora"
    POINTS = 32

    def setup(self) -> None:
        from repro.eval.accelerator import _compiled_program
        from repro.models.registry import benchmark_ir_digest
        from repro.space import get_default_space

        _compiled_program(self.BENCHMARK)
        benchmark_ir_digest(self.BENCHMARK)
        get_default_space()

    def _search(self) -> Any:
        from repro.dse import run_dse

        return run_dse(self.BENCHMARK, driver="random", points=self.POINTS,
                       seed=self.seed, jobs=1, cache=self.cache,
                       noc_backend="analytical")

    def _check_search(self, result: Any, stage: str, cached: bool) -> None:
        self.attempted += len(result.evaluations)
        for evaluation in result.evaluations:
            if not evaluation.ok or cached and evaluation.status != "cached":
                self.fail(f"{stage}: {evaluation.point.config_name} "
                          f"{evaluation.status} {evaluation.error or ''}")

    def cold_pass(self) -> int:
        self.cache = self.fresh_cache()
        self.cold = self._search()
        self._check_search(self.cold, "cold", cached=False)
        return self.POINTS

    def warm_replay(self) -> int:
        from repro.exp.cache import clear_memo

        clear_memo()
        self.warm = self._search()
        self._check_search(self.warm, "warm", cached=True)
        return self.POINTS

    def check(self) -> None:
        cold = json.dumps(self.cold.document(), sort_keys=True)
        if cold != json.dumps(self.warm.document(), sort_keys=True):
            self.fail("cold and warm DSE documents differ")

    def simulated(self) -> dict[str, float]:
        from repro.exp.cache import point_key

        reports = [self.cache.get(point_key(self.BENCHMARK, e.config))
                   for e in self.cold.ok_evaluations]
        return {"dse.hypervolume": self.cold.hypervolume(),
                **utilizations([r for r in reports if r is not None])}


class SystemsMix(Workload):
    """Every execution system: baselines, Eyeriss, accel, sharded accel.

    The only workload that runs the process pool, cross-system plan
    keys, partitioning and shard compilation; little of its work is in
    the kernel.  Two partitions (one per model family and chip count)
    keep its set-up, which is mostly METIS, affordable to sample.
    """

    name = "systems-mix"
    warm_replays = 200
    #: (benchmark, chips) partitioned with METIS under the workload seed.
    SHARDED = (("gcn-pubmed", 4), ("sage-pubmed", 2))
    METHOD = "metis"

    def __init__(self, seed: int, scratch: Path) -> None:
        # METIS seeds a NumPy generator, which refuses negative seeds;
        # every seed from 0 to 2**32 - 1 is passed through unchanged.
        super().__init__(seed % 2**32, scratch)

    def setup(self) -> None:
        from repro.eval.accelerator import _compiled_program
        from repro.eval.partition_sweep import resolve_sweep_config
        from repro.exp.runner import Point
        from repro.models.registry import ALL_BENCHMARKS, EXTENSION_BENCHMARKS
        from repro.partition.core import ShardSpec
        from repro.partition.shards import compiled_shard_program
        from repro.systems.multichip import MultiChipConfig
        from repro.systems.registry import SystemOptions

        config = resolve_sweep_config("CPU iso-BW", PAPER_CLOCK_GHZ)
        whole = [Point(b.key, config) for b in EXTENSION_BENCHMARKS]
        for point in whole:
            _compiled_program(point.benchmark_key)
        shards = []
        for key, chips in self.SHARDED:
            for index in range(chips):
                spec = ShardSpec(chips=chips, index=index,
                                 method=self.METHOD, seed=self.seed)
                compiled_shard_program(key, spec)
                shards.append(Point(key, config, shard=spec))
        others = [
            Point(b.key, system=system)
            for system in ("cpu", "gpu", "eyeriss")
            for b in ALL_BENCHMARKS
            if not (system == "eyeriss" and b.model == "PGNN")
        ]
        self.seed_free = whole + others
        # Longest points first, in a fixed order: the two pool workers
        # then finish together, and the seed cannot reshuffle the
        # makespan (it only moves the partition).
        self.points = whole + shards + others
        for point in self.points:
            point.key  # plan keys hash the workload IR: set-up work
        self.multichip = [
            (key, SystemOptions(
                config_name="CPU iso-BW", clock_ghz=PAPER_CLOCK_GHZ,
                multichip=MultiChipConfig(chips=chips, method=self.METHOD,
                                          seed=self.seed)))
            for key, chips in self.SHARDED
        ]

    def _pass(self, stage: str, cached: bool) -> tuple[Any, list[Any]]:
        """The sweep, then the multichip systems composed from its shards."""
        from repro.exp.runner import run_sweep_detailed
        from repro.systems import run_system

        outcome = run_sweep_detailed(self.points, jobs=2, cache=self.cache)
        self.check_outcome(outcome, stage, cached)
        composed = [run_system("multichip", key, options=options,
                               cache=self.cache)
                    for key, options in self.multichip]
        self.attempted += len(composed)
        return outcome, composed

    def cold_pass(self) -> int:
        self.cache = self.fresh_cache()
        self.cold, self.cold_composed = self._pass("cold", cached=False)
        return len(self.points) + len(self.multichip)

    def warm_replay(self) -> int:
        from repro.exp.cache import clear_memo

        clear_memo()
        self.warm, self.warm_composed = self._pass("warm", cached=True)
        return len(self.points) + len(self.multichip)

    def pinned_points(self) -> list[Any]:
        return self.seed_free

    def check(self) -> None:
        super().check()
        self.check_identity([
            (f"multichip/{key}/{options.multichip.chips}", cold, warm)
            for (key, options), cold, warm
            in zip(self.multichip, self.cold_composed, self.warm_composed)
        ])

    def simulated(self) -> dict[str, float]:
        from repro.partition.shards import partition_benchmark
        from repro.runtime.report import SimulationReport

        reports = [r for _, r in self.cold_reports()
                   if isinstance(r, SimulationReport)]
        cut = sum(
            partition_benchmark(key, chips, self.METHOD, self.seed)
            .total_cut_edges
            for key, chips in self.SHARDED
        )
        return {"partition.cut_edges": cut, **utilizations(reports)}


#: Registered workloads, in the order a full set runs them.
WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (PaperPacket, PaperAnalytical, DseCache, SystemsMix)
}
