"""Aggregator (AGG) model.

The AGG (Figure 7) manages a pool of in-progress associative reductions:
a 62kB data scratchpad divided into runtime-configurable evenly-sized
entries, a 2kB control scratchpad with per-aggregation metadata (expected
count, destination), and a bank of 16 32-bit ALUs.  As packets arrive the
ALU bank folds them into the stored partial aggregate and decrements the
count; at zero the entry frees and the fold's finish time goes back to
the requester, which forwards the result.  :meth:`Aggregator.contribute_batch`
is the one fold.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Callable

from repro.accel.config import TileConfig
from repro.sim.clock import Clock
from repro.sim.kernel import Simulator
from repro.sim.module import Module
from repro.sim.stats import BusyTracker


class Aggregator(Module):
    """Count-down associative reduction engine."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: TileConfig,
        clock: Clock,
    ) -> None:
        super().__init__(sim, name, clock)
        self.config = config
        self.alu_bank = BusyTracker()
        self._width_values = 16
        self._capacity = config.max_aggregations(self._width_values)
        # Inputs still expected, by aggregation id.  Every entry has the
        # current width: configure() refuses to run with any in flight.
        self._active: dict[int, int] = {}
        self._alloc_waitlist: deque[tuple[int, Callable[[float, int], None]]] = deque()
        self._ids = itertools.count()
        # Per-configuration constant, recomputed on configure(): the
        # per-packet fold cost is one memoized value, not a ceil per packet.
        self._fold_cycles = math.ceil(self._width_values / config.agg_alus)
        self._grant_delay_ns = clock.cycles_to_ns(1)
        self._ghz = clock.freq_ghz
        # Integer tallies behind the ``allocations``, ``contributions``
        # and ``values`` counters.
        self._allocations = 0
        self._contributions = 0
        self._values = 0

    # -- layer configuration ------------------------------------------------

    def configure(self, width_values: int) -> None:
        """Set entry width for the next layer (allocation-bus transaction)."""
        if self._active:
            raise RuntimeError("cannot reconfigure with aggregations in flight")
        self._width_values = max(1, width_values)
        self._capacity = self.config.max_aggregations(self._width_values)
        self._fold_cycles = math.ceil(self._width_values / self.config.agg_alus)

    @property
    def capacity(self) -> int:
        """In-flight aggregation limit at the current entry width."""
        return self._capacity

    @property
    def in_flight(self) -> int:
        return len(self._active)

    @property
    def waiting_allocs(self) -> int:
        """Allocation requests queued for a free entry (diagnostics)."""
        return len(self._alloc_waitlist)

    # -- allocation -----------------------------------------------------------

    def alloc(
        self, expected_inputs: int, on_grant: Callable[[float, int], None]
    ) -> None:
        """Allocate an aggregation expecting ``expected_inputs`` packets.

        ``on_grant(grant_ns, agg_id)`` fires when an entry is available
        (scratchpad allocation takes one cycle).  Zero-input aggregations
        complete immediately upon first use, so they are rejected here.
        """
        if expected_inputs < 1:
            raise ValueError("aggregation needs at least one input")
        if len(self._active) + len(self._alloc_waitlist) < self._capacity:
            self._grant(expected_inputs, on_grant, self.now)
        else:
            self.stats.add("alloc_stalls")
            self._alloc_waitlist.append((expected_inputs, on_grant))

    def _grant(
        self,
        expected_inputs: int,
        on_grant: Callable[[float, int], None],
        now: float,
    ) -> None:
        agg_id = next(self._ids)
        self._active[agg_id] = expected_inputs
        self._allocations += 1
        grant_ns = now + self._grant_delay_ns  # 1-cycle allocation
        on_grant(grant_ns, agg_id)

    # -- data path -------------------------------------------------------------

    def contribute_batch(
        self, agg_id: int, arrival_ns: float, count: int
    ) -> float:
        """Fold ``count`` packets that arrived together (pull-model gather).

        One ALU-bank reservation of ``count`` folds, each taking
        ``width / num_alus`` element-slices; returns the finish time of
        the last fold.  The fold that brings the expected count to zero
        frees the entry for the next waiting allocation.
        """
        if count < 1:
            raise ValueError("batch must contain at least one contribution")
        remaining = self._active.get(agg_id)
        if remaining is None:
            raise KeyError(f"no in-flight aggregation {agg_id}")
        if count > remaining:
            raise ValueError(
                f"aggregation {agg_id} expects {remaining} more "
                f"inputs, got {count}"
            )
        _, finish = self.alu_bank.occupy(
            arrival_ns, (count * self._fold_cycles) / self._ghz
        )
        self._contributions += count
        self._values += count * self._width_values
        if count == remaining:
            del self._active[agg_id]
            self._drain_waitlist()
        else:
            self._active[agg_id] = remaining - count
        return finish

    def _drain_waitlist(self) -> None:
        while self._alloc_waitlist and len(self._active) < self._capacity:
            expected, on_grant = self._alloc_waitlist.popleft()
            self._grant(expected, on_grant, self.now)

    def _derived_counts(self) -> dict[str, float]:
        counts = {}
        if self._allocations:
            counts["allocations"] = float(self._allocations)
        if self._contributions:
            counts["contributions"] = float(self._contributions)
            counts["values"] = float(self._values)
        return counts

    def utilization(self, elapsed_ns: float) -> float:
        """ALU-bank busy fraction over ``elapsed_ns``."""
        return self.alu_bank.utilization(elapsed_ns)
