"""The unified run observer: registry + timeline + tracer + profiler.

One :class:`Observer` attached to one simulation (via
``RuntimeEngine(accel, observer=...)`` or
``simulate(program, config, observer=...)``, the only attach points)
wires every accelerator unit into a
:class:`~repro.obs.registry.MetricsRegistry`, feeds every busy ledger
into a :class:`~repro.obs.timeline.Timeline`, records vertex-program
phases through the existing :class:`~repro.runtime.trace.Tracer`, and
samples the event kernel's loop from a background thread with a
:class:`~repro.obs.profiler.KernelProfiler`.

The design contract — proven by ``tests/obs/test_zero_perturbation.py``
against the golden digests — is that attaching an observer never
changes simulated results: every hook reads state the simulation
already maintains (counters, ledgers, host wall clock, the running
loop's stack) and none of them feed back into scheduling decisions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.profiler import KernelProfiler
from repro.obs.registry import MetricsRegistry, Snapshot, merge_snapshots
from repro.obs.timeline import Timeline, TrackAccounting
from repro.runtime.trace import Tracer
from repro.sim.stats import BusyTracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.accel.system import Accelerator
    from repro.noc.topology import Coord
    from repro.runtime.report import SimulationReport

#: Unit classes aggregated by :meth:`Observer.utilization_breakdown`,
#: with the name prefix/suffix convention that selects their tracks.
_TILE_UNITS = ("gpe", "dna", "agg")


def _coord_label(coord: "Coord") -> str:
    return f"({coord[0]},{coord[1]})"


class Observer:
    """Collects every observability signal of one simulated run: the
    metrics registry, the busy-span timeline, the phase tracer and the
    kernel profiler.

    An observer binds to exactly one accelerator (and therefore one
    run); build a fresh one per run.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.timeline = Timeline()
        self.tracer = Tracer()
        self.profiler = KernelProfiler()
        self.report: "SimulationReport | None" = None
        self._accel: "Accelerator | None" = None

    # -- wiring -------------------------------------------------------------

    def attach(self, accel: "Accelerator") -> None:
        """Register every unit of ``accel`` (idempotent for the same one).

        Called by :class:`~repro.runtime.engine.RuntimeEngine`; callers
        constructing engines manually may also call it directly before
        the run starts.
        """
        if self._accel is accel:
            return
        if self._accel is not None:
            raise RuntimeError(
                "observer is already attached to a different accelerator; "
                "build one Observer per run"
            )
        self._accel = accel
        for tile in accel.tiles:
            x, y = tile.coord
            base = f"tile.{x}.{y}"
            self._register(f"{base}/gpe", tile.gpe.stats, tile.gpe.core)
            self._register(f"{base}/dna", tile.dna.stats, tile.dna.tracker)
            self._register(f"{base}/agg", tile.agg.stats, tile.agg.alu_bank)
            self._register(f"{base}/dnq", tile.dnq.stats, None)
        for memory, coord in zip(accel.memories, accel.config.memory_coords):
            self._register(f"mem.{coord[0]}.{coord[1]}",
                           memory.stats, memory.channel)
        self._register("noc", accel.noc.stats, None)
        accel.noc.attach_tracker_listener(self._register_link)

    def _register(
        self, name: str, stats: Any, tracker: BusyTracker | None
    ) -> None:
        self.registry.register(name, stats=stats, tracker=tracker)
        if tracker is not None:
            tracker.attach_span_sink(self.timeline.track(name))

    def _register_link(
        self, link: "tuple[Coord, Coord]", tracker: BusyTracker
    ) -> None:
        src, dst = link
        name = f"noc/link/{_coord_label(src)}-{_coord_label(dst)}"
        self._register(name, None, tracker)

    def finalize(self, report: "SimulationReport") -> None:
        """Bind the finished run's report (called by the engine)."""
        self.report = report

    # -- views --------------------------------------------------------------

    @property
    def elapsed_ns(self) -> float | None:
        """The observed run's end-to-end latency (None before finalize)."""
        if self.report is None:
            return None
        return self.report.latency_ns

    def snapshot(self) -> Snapshot:
        """One flat, JSON-serializable metrics view of the run.

        Hardware units appear under their hierarchical names; the kernel
        profile merges in under ``sim/kernel``.
        """
        return merge_snapshots(
            self.registry.snapshot(self.elapsed_ns),
            {"sim/kernel": self.profiler.profile().as_dict()},
        )

    def accounting(self, name: str) -> TrackAccounting:
        """Busy/stalled/idle partition of one track over the run."""
        if self.elapsed_ns is None:
            raise RuntimeError("run not finalized yet")
        return self.timeline.accounting(name, self.elapsed_ns)

    def utilization_breakdown(self) -> dict[str, Any]:
        """Per-module utilizations plus per-engine-class aggregates.

        The ``dna`` and ``gpe`` aggregates are computed with exactly the
        arithmetic of :meth:`Accelerator.dna_utilization` /
        :meth:`~Accelerator.gpe_utilization` (mean of per-tile busy
        fractions, in tile order), so they agree bit-for-bit with the
        report fields behind ``eval.utilization.figure10``.
        """
        elapsed = self.elapsed_ns
        if elapsed is None:
            raise RuntimeError(
                "run not finalized yet; breakdown needs the elapsed time"
            )
        modules: dict[str, dict[str, float]] = {}
        classes: dict[str, dict[str, float]] = {}
        by_class: dict[str, list[str]] = {}
        for name in self.registry.names():
            tracker = self.registry.tracker(name)
            if tracker is None:
                continue
            modules[name] = {
                "busy_ns": tracker.busy_time,
                "utilization": tracker.utilization(elapsed),
            }
            by_class.setdefault(self._unit_class(name), []).append(name)
        for unit_class, names in by_class.items():
            utils = [modules[name]["utilization"] for name in names]
            classes[unit_class] = {
                "modules": len(names),
                "busy_ns": sum(modules[name]["busy_ns"] for name in names),
                "utilization": sum(utils) / len(utils),
                "peak_utilization": max(utils),
            }
        return {
            "elapsed_ns": elapsed,
            "classes": classes,
            "modules": modules,
        }

    @staticmethod
    def _unit_class(name: str) -> str:
        if name.startswith("tile.") and "/" in name:
            return name.rsplit("/", 1)[1]
        if name.startswith("mem."):
            return "mem"
        if name.startswith("noc/link/"):
            return "noc/link"
        return name
