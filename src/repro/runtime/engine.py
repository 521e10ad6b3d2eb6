"""Algorithm 1 execution engine.

Executes an :class:`~repro.runtime.program.AcceleratorProgram` on an
:class:`~repro.accel.system.Accelerator`:

* layers run in order with a global synchronization barrier between them
  (Algorithm 1 lines 14-15 and 22-23),
* per layer, every hardware module is reconfigured over the allocation
  bus, then one vertex task runs for every entry of the work queue,
* tasks are owned by their vertex's tile; the GPE's software thread pool
  bounds how many are in flight per tile, and every phase contends for
  its hardware unit (GPE issue slots, memory channels, NoC links, DNQ
  slots, DNA array, AGG entries and ALUs).

The engine is transaction-level: unit reservations compute timestamps
analytically (``BusyTracker``), and discrete events are scheduled only
where ordering decisions depend on resource grants (thread grants, AGG
allocation, DNQ slots, data arrivals).  A vertex program continues
through the engine's own methods: a wait is one ``Simulator.post_at`` of
a bound method, and a grant handed to a unit is a ``functools.partial``
of one, so no function is built per task.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.accel.config import AcceleratorConfig
from repro.accel.system import Accelerator
from repro.accel.tile import Tile
from repro.runtime.program import (
    AcceleratorProgram,
    LayerProgram,
    ROUND_COLUMNS,
    TASK_COLUMNS,
)
from repro.runtime.report import LayerReport, SimulationReport
from repro.runtime.trace import Tracer
from repro.runtime.validate import assert_valid
from repro.sim.kernel import SimulationError
from repro.sim.watchdog import WatchdogDiagnosis, WatchdogTrip

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Observer

#: Fixed cost of the inter-layer barrier and reconfiguration, in GPE
#: cycles: a configuration broadcast plus a synchronization round trip.
BARRIER_CYCLES = 200

#: A hardware resource reserved further than this past the current time is
#: considered wedged rather than contended (no healthy run reserves a unit
#: more than ~1000 s of simulated time ahead).
STUCK_HORIZON_NS = 1e12


class SimulationFailure(SimulationError):
    """A run that terminated without producing a report.

    Structured counterpart of a watchdog trip or deadlock: carries the
    benchmark and configuration, the layer that was executing, how many
    tasks never finished, the suspected stuck modules, and (for watchdog
    trips) the kernel-level :class:`~repro.sim.watchdog.WatchdogDiagnosis`.
    """

    def __init__(
        self,
        message: str,
        *,
        benchmark: str = "",
        config_name: str = "",
        layer: str = "",
        tasks_remaining: int = 0,
        suspects: tuple[str, ...] = (),
        diagnosis: WatchdogDiagnosis | None = None,
    ) -> None:
        super().__init__(message)
        self.benchmark = benchmark
        self.config_name = config_name
        self.layer = layer
        self.tasks_remaining = tasks_remaining
        self.suspects = suspects
        self.diagnosis = diagnosis


class DeadlockError(SimulationFailure):
    """The event queue drained with vertex tasks still unfinished."""


class _LayerPlan:
    """One layer's task columns as lists, plus per-task duration tables.

    Handlers read a task's fields by index from Python lists, converted
    once per layer from the :class:`~repro.runtime.program.TaskTable`
    columns, so no per-task object is built.  The per-task cost of every
    phase is a pure function of the (immutable) task and the (per-layer)
    configuration, so it is hoisted out of the event handlers: the plan
    asks the units' own cost methods
    (:meth:`GraphPE.service_ns <repro.accel.gpe.GraphPE.service_ns>`,
    :meth:`DnaUnit.service_ns <repro.accel.dna.DnaUnit.service_ns>`) for
    all tasks at once, as numpy arrays.  Instruction counts are
    integer-valued, so their sums are exact in any grouping, and
    elementwise float64 division is correctly rounded exactly like the
    scalar call — each table entry equals the unit's scalar cost for
    that task (``tests/accel/test_unit_properties.py`` checks it).
    """

    #: The task columns the handlers read.
    COLUMNS = TASK_COLUMNS + ROUND_COLUMNS

    __slots__ = COLUMNS + ("aggregates", "expected_inputs",
                           "agg_instructions", "ctrl_ns", "load_ns",
                           "agg_issue_ns", "dnq_issue_ns", "dna_ns")

    def __init__(self, engine: "RuntimeEngine", layer: LayerProgram) -> None:
        tasks = layer.tasks
        for name in self.COLUMNS:
            setattr(self, name, getattr(tasks, name).tolist())
        tile = engine.accel.tiles[0]
        gpe_ns = tile.gpe.service_ns
        ipl, ipa = engine._ipl, engine._ipa
        gather, local = tasks.gather_count, tasks.local_contributions
        self.aggregates = ((gather > 0) | (local > 0)).tolist()
        self.expected_inputs = (gather + local).tolist()
        self.agg_instructions = (gather * ipl + ipa).tolist()
        self.ctrl_ns = gpe_ns(
            tasks.control_instructions.astype(np.float64)
        ).tolist()
        # The issue ahead of the block load.
        self.load_ns = gpe_ns(ipl)
        # Aggregate-phase issue: gather_count * ipl + ipa instructions.
        self.agg_issue_ns = gpe_ns(
            gather.astype(np.float64) * ipl + ipa
        ).tolist()
        # DNQ allocation-bus issue.
        self.dnq_issue_ns = gpe_ns(ipa)
        self.dna_ns = tile.dna.service_ns(
            tasks.dna_macs.astype(np.float64), layer.dna_efficiency
        ).tolist()


class RuntimeEngine:
    """Runs accelerator programs and produces simulation reports.

    ``observer`` — a :class:`repro.obs.Observer` — attaches the unified
    observability layer: the accelerator's units register into its
    metrics registry (busy ledgers feeding its timeline), the kernel
    runs under its profiler, and phase transitions go to its tracer
    (``Observer(timeline=False, kernel_profile=False)`` traces phases
    alone).  Observation never perturbs simulated results
    (``tests/obs/test_zero_perturbation.py``).
    """

    def __init__(
        self,
        accel: Accelerator,
        observer: "Observer | None" = None,
    ) -> None:
        self.accel = accel
        self.sim = accel.sim
        # Every continuation is one post: each time comes back from a
        # unit call whose ready time was at least the current time, and
        # post_at rejects anything earlier (or NaN).
        self._post_at = accel.sim.post_at
        self.observer = observer
        self._profiler = None
        self.tracer: Tracer | None = None
        if observer is not None:
            observer.attach(accel)
            self._profiler = observer.profiler
            self.tracer = observer.tracer
        self._layer_end = 0.0
        self._tasks_remaining = 0
        self._program_name = ""
        # Hot-path constants: every tile shares one clock and one GPE
        # cost model (they come from the same AcceleratorConfig), so the
        # per-layer duration tables are computed once for all tiles.
        costs = accel.tiles[0].gpe.costs
        self._ipv = costs.instructions_per_visit
        self._ipl = costs.instructions_per_load
        self._ipa = costs.instructions_per_alloc
        # Traversal rounds repeat the same neighbour counts across tasks
        # (the degree distribution), so issue durations memoize by count.
        self._visit_memo: dict[int, float] = {}
        self._layer: LayerProgram | None = None
        self._plan: _LayerPlan | None = None

    def _trace(self, phase: str, tile: Tile, i: int, t: float) -> None:
        if self.tracer is not None:
            self.tracer.record(t, self._layer.name, self._plan.vertex[i],
                               phase, tile.coord)

    # -- top level ----------------------------------------------------------

    def run(self, program: AcceleratorProgram) -> SimulationReport:
        """Execute all layers with barriers; returns the report.

        Raises :class:`SimulationFailure` (a :class:`DeadlockError` or a
        converted watchdog trip) when the program cannot complete within
        the configuration's :class:`~repro.sim.watchdog.WatchdogConfig`
        budgets; the exception names the suspected stuck modules.
        """
        assert_valid(program, self.accel.config.tile)
        self._program_name = program.name
        reports: list[LayerReport] = []
        clock_start = 0.0
        barrier_ns = self.accel.clock.cycles_to_ns(BARRIER_CYCLES)
        for layer in program.layers:
            start = clock_start + barrier_ns
            end = self._run_layer(layer, start)
            reports.append(
                LayerReport(
                    name=layer.name,
                    start_ns=start,
                    end_ns=end,
                    num_tasks=len(layer.tasks),
                )
            )
            clock_start = end
        report = self._build_report(program, reports)
        if self.observer is not None:
            self.observer.finalize(report)
        return report

    # -- one layer ------------------------------------------------------------

    def _run_layer(self, layer: LayerProgram, start_ns: float) -> float:
        """Run one layer to completion; returns its end time.

        The layer starts with one event, :meth:`_offer_tasks`, and ends
        when the queue drains.  A layer that drains with tasks unfinished
        is a :class:`DeadlockError`; one that finishes them but leaves a
        thread, DNQ slot or AGG entry held fails :meth:`_check_drained`,
        and one whose memory controllers saw other DRAM bytes than its
        tasks request fails :meth:`_check_dram_bytes`.
        """
        for tile in self.accel.tiles:
            tile.configure_layer(layer.dnq_entry_bytes, layer.agg_width_values)
        requested_before = self._dram_bytes_requested()
        self._layer_end = start_ns
        self._tasks_remaining = len(layer.tasks)
        self._layer = layer
        self._plan = _LayerPlan(self, layer)
        self.sim.post_at(max(start_ns, self.sim.now), self._offer_tasks)
        try:
            self.sim.run(watchdog=self.accel.config.watchdog,
                         profiler=self._profiler)
        except WatchdogTrip as trip:
            raise self._failure(
                f"layer {layer.name!r} exceeded its watchdog budget "
                f"({trip.diagnosis.reason})",
                layer,
                diagnosis=trip.diagnosis,
            ) from trip
        if self._tasks_remaining != 0:
            raise self._failure(
                f"layer {layer.name!r} deadlocked with "
                f"{self._tasks_remaining} tasks unfinished",
                layer,
                kind=DeadlockError,
            )
        self._check_drained(layer)
        self._check_dram_bytes(layer, requested_before)
        return self._layer_end

    def _offer_tasks(self) -> None:
        """Layer start: offer every task to its tile's thread pool.

        Tasks are offered in work-queue order, all at this event's time.
        Each tile gets one feeder that starts the tile's next task, in
        task order, on every thread grant: the first ``gpe_threads``
        offers to a tile start at once, and the rest wait in the pool as
        references to that same feeder.  Grants are FIFO, so a tile's
        k-th grant starts its k-th task, exactly as if every task waited
        on a callback of its own — but the layer's live objects stay
        O(threads), not O(tasks), and no per-task object outlives this
        event.
        """
        tile_of = self.accel.tile_of
        owners = [tile_of(vertex) for vertex in self._plan.vertex]
        queues: dict[Tile, list[int]] = {tile: [] for tile in self.accel.tiles}
        for i, tile in enumerate(owners):
            queues[tile].append(i)
        feeders = {
            tile: self._feeder(tile, indices)
            for tile, indices in queues.items()
        }
        for tile in owners:
            tile.gpe.acquire_thread_at(feeders[tile])

    def _feeder(
        self, tile: Tile, indices: list[int]
    ) -> Callable[[float], None]:
        """Thread-grant callback starting ``tile``'s tasks in order."""
        next_index = iter(indices).__next__
        start = self._start_task

        def feed(grant_ns: float) -> None:
            start(tile, next_index(), grant_ns)

        return feed

    def _check_drained(self, layer: LayerProgram) -> None:
        """End-of-layer conservation: every unit is back to idle.

        Each tile must have all its GPE threads free with nobody waiting,
        no DNQ slot in use and no AGG entry in flight.  A leak would
        otherwise shrink the next layer's pools silently, or surface only
        as a bare error when the next layer reconfigures the unit.
        """
        leaks: list[str] = []
        for tile in self.accel.tiles:
            gpe, dnq, agg = tile.gpe, tile.dnq, tile.agg
            threads = gpe.config.gpe_threads
            if gpe.free_threads != threads or gpe.waiting_threads:
                leaks.append(
                    f"{gpe.name}: {gpe.free_threads} of {threads} threads "
                    f"free, {gpe.waiting_threads} tasks waiting"
                )
            if dnq.slots_in_use:
                leaks.append(f"{dnq.name}: {dnq.slots_in_use} slot(s) in use")
            if agg.in_flight:
                leaks.append(
                    f"{agg.name}: {agg.in_flight} aggregation(s) in flight"
                )
        if leaks:
            raise self._failure(
                f"layer {layer.name!r} finished with units still held",
                layer,
                suspects=leaks,
            )

    def _dram_bytes_requested(self) -> float:
        """Bytes requested from every memory controller so far."""
        return sum(m.stats.get("bytes_requested") for m in self.accel.memories)

    def _check_dram_bytes(
        self, layer: LayerProgram, requested_before: float
    ) -> None:
        """End-of-layer conservation: the memory controllers saw exactly
        the DRAM bytes the layer's tasks request."""
        expected = layer.dram_bytes_requested
        seen = self._dram_bytes_requested() - requested_before
        if seen != expected:
            raise self._failure(
                f"layer {layer.name!r} requested {expected} DRAM bytes but "
                f"the memory controllers saw {seen:.0f}",
                layer,
                suspects=[],
            )

    # -- failure diagnosis ------------------------------------------------------

    def _failure(
        self,
        message: str,
        layer: LayerProgram,
        diagnosis: WatchdogDiagnosis | None = None,
        kind: type[SimulationFailure] = SimulationFailure,
        suspects: list[str] | None = None,
    ) -> SimulationFailure:
        """A classified failure naming the suspects (probed by default)."""
        suspects = tuple(self._suspects() if suspects is None else suspects)
        detail = "; ".join(suspects) if suspects else "no suspect module"
        text = f"{message} [suspects: {detail}]"
        if diagnosis is not None:
            text = f"{text} [{diagnosis.format()}]"
        return kind(
            text,
            benchmark=self._program_name,
            config_name=self.accel.config.name,
            layer=layer.name,
            tasks_remaining=self._tasks_remaining,
            suspects=suspects,
            diagnosis=diagnosis,
        )

    def _suspects(self) -> list[str]:
        """Name the modules most likely responsible for a stuck run.

        Two complementary probes: hardware resources reserved absurdly
        far into the future (a stalled channel, a frozen core, a wedged
        link) and units with non-empty wait queues that can no longer
        drain (the signature of a dropped grant).
        """
        accel, now = self.accel, self.sim.now
        suspects: list[str] = []
        for memory in accel.memories:
            if memory.channel.busy_until > now + STUCK_HORIZON_NS:
                suspects.append(
                    f"{memory.name}: channel reserved until "
                    f"{memory.channel.busy_until:g} ns"
                )
        for tile in accel.tiles:
            if tile.gpe.core.busy_until > now + STUCK_HORIZON_NS:
                suspects.append(
                    f"{tile.gpe.name}: core busy until "
                    f"{tile.gpe.core.busy_until:g} ns"
                )
            if tile.dna.tracker.busy_until > now + STUCK_HORIZON_NS:
                suspects.append(
                    f"{tile.dna.name}: array busy until "
                    f"{tile.dna.tracker.busy_until:g} ns"
                )
            if tile.gpe.waiting_threads:
                suspects.append(
                    f"{tile.gpe.name}: {tile.gpe.waiting_threads} tasks "
                    f"waiting for a thread"
                )
            if tile.agg.waiting_allocs:
                suspects.append(
                    f"{tile.agg.name}: {tile.agg.waiting_allocs} "
                    f"aggregations waiting for an entry"
                )
            if tile.dnq.waiting_reservations:
                suspects.append(
                    f"{tile.dnq.name}: {tile.dnq.waiting_reservations} "
                    f"jobs waiting for a slot"
                )
        for (src, dst), busy_until in accel.noc.stalled_links(
            now, STUCK_HORIZON_NS
        ):
            suspects.append(
                f"noc link {src}->{dst}: reserved until {busy_until:g} ns"
            )
        return suspects

    # -- one vertex program ------------------------------------------------------
    #
    # Every phase that waits on a memory, NoC, DNA or AGG completion
    # re-enters through an event at that completion, so the next unit
    # reservation happens at its true issue time; reserving a unit at a
    # far-future timestamp would falsely head-of-line block requests issued
    # (in real time) before it.

    def _start_task(self, tile: Tile, i: int, t: float) -> None:
        """Phases 1-2: control and the asynchronous structure read.

        ``i`` is the task's index in the layer and ``t`` the thread-grant
        time.
        """
        plan = self._plan
        self._trace("start", tile, i, t)
        t = tile.gpe.issue_ns(plan.ctrl_ns[i], plan.control_instructions[i],
                              t)
        block_load_bytes = plan.block_load_bytes[i]
        if block_load_bytes:
            t = tile.gpe.issue_ns(plan.load_ns, self._ipl, t)
            arrival = self.accel.memory_read(
                plan.vertex[i], block_load_bytes, t, tile.coord
            )
            self._post_at(arrival, self._traversal_phase, tile, i,
                          plan.round_ptr[i], arrival)
        else:
            self._traversal_phase(tile, i, plan.round_ptr[i], t)

    def _visit_ns(self, count: int) -> float:
        """Memoized duration of one traversal-round issue."""
        memo = self._visit_memo
        ns = memo.get(count)
        if ns is None:
            ns = self.accel.tiles[0].gpe.service_ns(count * self._ipv)
            memo[count] = ns
        return ns

    def _traversal_phase(self, tile: Tile, i: int, r: int, t: float) -> None:
        """Phase 3: one dependent traversal round per entry.

        ``r`` indexes the task's next round in the layer's round columns;
        ``t`` is the ready time carried from the previous phase: never
        before the current event time, and at most a GPE-queue lookahead
        past it.
        """
        plan = self._plan
        end = plan.round_ptr[i + 1]
        counts = plan.round_count
        while r < end and counts[r] == 0:
            r += 1
        if r < end:
            count = counts[r]
            issue_done = tile.gpe.issue_ns(
                self._visit_ns(count), count * self._ipv, t
            )
            arrival = self.accel.gather_read(
                count, plan.round_bytes[r], issue_done, tile.coord
            )
            self._post_at(arrival, self._traversal_phase, tile, i, r + 1,
                          arrival)
            return
        if plan.aggregates[i]:
            self._aggregate_phase(tile, i, t)
        else:
            self._dna_phase(tile, i, t)

    def _aggregate_phase(self, tile: Tile, i: int, t: float) -> None:
        """Phase 4: allocate an AGG entry, gather inputs, reduce.

        Contributions come from two sources: values already fetched by the
        traversal phase (``local_contributions``, folded as soon as the
        entry exists) and the indirect gather reads issued on the grant
        (:meth:`_on_agg_grant`).
        """
        plan = self._plan
        self._trace("aggregate", tile, i, t)
        issue_done = tile.gpe.issue_ns(
            plan.agg_issue_ns[i], plan.agg_instructions[i], t
        )
        # The allocation-bus request goes out at the current event time
        # (the issue above is queued work, not a dependency).
        tile.agg.alloc(plan.expected_inputs[i], partial(
            self._on_agg_grant, tile, i, issue_done
        ))

    def _on_agg_grant(
        self, tile: Tile, i: int, issue_done: float, grant_ns: float,
        agg_id: int,
    ) -> None:
        """AGG entry granted: fold the local values, gather the rest."""
        plan = self._plan
        start = grant_ns if grant_ns > issue_done else issue_done
        local_done = start
        local = plan.local_contributions[i]
        if local:
            local_done = tile.agg.contribute_batch(agg_id, start, local)
        gather = plan.gather_count[i]
        if gather:
            arrival = self.accel.gather_read(
                gather, plan.gather_bytes_each[i], start, tile.coord,
            )
            self._post_at(arrival, self._reduce_batch, tile, i, agg_id,
                          arrival)
        else:
            # Traversal-only aggregation: already complete.
            self._dna_phase(tile, i, local_done)

    def _reduce_batch(
        self, tile: Tile, i: int, agg_id: int, at: float
    ) -> None:
        """The gathered values arrived: fold them into the entry."""
        finish = tile.agg.contribute_batch(agg_id, at,
                                           self._plan.gather_count[i])
        self._dna_phase(tile, i, finish)

    def _dna_phase(self, tile: Tile, i: int, t: float) -> None:
        """Phase 5: stage the vertex's dense job through DNQ to the DNA."""
        if not self._plan.dna_macs[i]:
            self._finish_task(tile, i, t)
            return
        self._trace("dna", tile, i, t)
        issue_done = tile.gpe.issue_ns(self._plan.dnq_issue_ns, self._ipa, t)
        tile.dnq.reserve(partial(self._on_slot, tile, i, issue_done))

    def _on_slot(self, tile: Tile, i: int, issue_done: float) -> None:
        """DNQ slot granted: fetch the vertex's features into the entry."""
        plan = self._plan
        now = self.sim._now
        fetch_start = now if now > issue_done else issue_done
        feature_bytes = plan.feature_bytes[i]
        if feature_bytes:
            arrival = self.accel.memory_read(
                plan.vertex[i], feature_bytes, fetch_start, tile.coord
            )
        else:
            arrival = fetch_start
        self._post_at(arrival, self._fill, tile, i, arrival)

    def _fill(self, tile: Tile, i: int, at: float) -> None:
        """The entry's data arrived: run the DNA job, write back at its end."""
        plan = self._plan
        finish = tile.dnq.fill(at, plan.dna_ns[i], plan.dna_macs[i],
                               plan.dnq_queue[i])
        self._post_at(finish, self._finish_task, tile, i, finish)

    def _finish_task(self, tile: Tile, i: int, t: float) -> None:
        """Phase 6: writeback, thread release, layer bookkeeping."""
        self._trace("finish", tile, i, t)
        output_bytes = self._plan.output_bytes[i]
        if output_bytes:
            t = self.accel.memory_write(
                self._plan.vertex[i], output_bytes, t, tile.coord
            )
        if t > self._layer_end:
            self._layer_end = t
        self._post_at(t, self._retire_task, t, tile)

    def _retire_task(self, at: float, tile: Tile) -> None:
        self._tasks_remaining -= 1
        tile.gpe.release_thread(now=at)

    # -- reporting -------------------------------------------------------------

    def _build_report(
        self, program: AcceleratorProgram, layers: list[LayerReport]
    ) -> SimulationReport:
        elapsed = layers[-1].end_ns - layers[0].start_ns if layers else 0.0
        accel = self.accel
        wasted = sum(m.stats.get("bytes_wasted") for m in accel.memories)
        agg_util = sum(
            t.agg.utilization(elapsed) for t in accel.tiles
        ) / len(accel.tiles)
        return SimulationReport(
            benchmark=program.name,
            config_name=accel.config.name,
            clock_ghz=accel.config.clock_ghz,
            layers=layers,
            dram_bytes=accel.total_dram_bytes(),
            dram_wasted_bytes=wasted,
            mean_bandwidth_gbps=accel.mean_bandwidth_gbps(elapsed),
            bandwidth_utilization=accel.bandwidth_utilization(elapsed),
            dna_utilization=accel.dna_utilization(elapsed),
            gpe_utilization=accel.gpe_utilization(elapsed),
            agg_utilization=agg_util,
            noc_peak_link_utilization=accel.noc.max_link_utilization(elapsed),
        )


def simulate(
    program: AcceleratorProgram,
    config: AcceleratorConfig,
    observer: "Observer | None" = None,
) -> SimulationReport:
    """Build an accelerator for ``config`` and run ``program`` on it.

    ``observer`` attaches the :mod:`repro.obs` observability layer for
    this run; the report is bit-identical with or without one.
    """
    return simulate_detailed(program, config, observer=observer)[0]


def simulate_detailed(
    program: AcceleratorProgram,
    config: AcceleratorConfig,
    observer: "Observer | None" = None,
) -> tuple[SimulationReport, Accelerator]:
    """Like :func:`simulate`, also returning the accelerator instance.

    The instance carries the raw activity counters (per-unit stats,
    per-link NoC occupancy) that post-processing such as
    :func:`repro.accel.energy.estimate_energy` consumes.
    """
    accel = Accelerator(config)
    report = RuntimeEngine(accel, observer=observer).run(program)
    return report, accel
