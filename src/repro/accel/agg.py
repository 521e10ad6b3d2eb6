"""Aggregator (AGG) model.

The AGG (Figure 7) manages a pool of in-progress associative reductions:
a 62kB data scratchpad divided into runtime-configurable evenly-sized
entries, a 2kB control scratchpad with per-aggregation metadata (expected
count, destination), and a bank of 16 32-bit ALUs.  As packets arrive the
ALU bank folds them into the stored partial aggregate and decrements the
count; at zero the result is sent to the destination configured at
allocation time.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.accel.config import TileConfig
from repro.sim.clock import Clock
from repro.sim.kernel import Simulator
from repro.sim.module import Module
from repro.sim.stats import BusyTracker


@dataclass
class _Aggregation:
    """One in-flight reduction."""

    agg_id: int
    remaining: int
    width_values: int
    on_complete: Callable[[float], None]


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
        self._active: dict[int, _Aggregation] = {}
        self._alloc_waitlist: deque[tuple[int, Callable[[float, int], None]]] = deque()
        self._ids = itertools.count()
        # Per-configuration constants, recomputed on configure():
        # every active entry has the current width (configure() refuses
        # to run with aggregations in flight), so the per-packet fold
        # cost is a single memoized value rather than a ceil per packet.
        self._fold_cycles = math.ceil(self._width_values / config.agg_alus)
        self._grant_delay_ns = clock.cycles_to_ns(1)
        self._ghz = clock.freq_ghz

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
        entry = _Aggregation(
            agg_id=agg_id,
            remaining=expected_inputs,
            width_values=self._width_values,
            on_complete=lambda finish: None,
        )
        self._active[agg_id] = entry
        self.stats.add("allocations")
        grant_ns = now + self._grant_delay_ns  # 1-cycle allocation
        on_grant(grant_ns, agg_id)

    def set_completion(
        self, agg_id: int, on_complete: Callable[[float], None]
    ) -> None:
        """Install the destination callback (stored in the control pad)."""
        self._active[agg_id].on_complete = on_complete

    # -- data path -------------------------------------------------------------

    def contribute(self, agg_id: int, arrival_ns: float) -> float:
        """Fold one arriving packet into its aggregation.

        Returns the ALU finish time.  The ALU bank processes
        ``width / num_alus`` element-slices per packet; when the count
        reaches zero the completion callback receives the finish time and
        the entry is recycled.
        """
        entry = self._active.get(agg_id)
        if entry is None:
            raise KeyError(f"no in-flight aggregation {agg_id}")
        _, finish = self.alu_bank.occupy(
            arrival_ns, self._fold_cycles / self._ghz
        )
        self.stats.add("contributions")
        self.stats.add("values", entry.width_values)
        entry.remaining -= 1
        if entry.remaining == 0:
            del self._active[agg_id]
            entry.on_complete(finish)
            self._drain_waitlist()
        return finish

    def contribute_batch(
        self, agg_id: int, arrival_ns: float, count: int
    ) -> float:
        """Fold ``count`` packets that arrived together (pull-model gather).

        Equivalent to ``count`` calls to :meth:`contribute` back to back,
        but bounded to one ALU-bank reservation; returns the finish time
        of the last fold.
        """
        if count < 1:
            raise ValueError("batch must contain at least one contribution")
        entry = self._active.get(agg_id)
        if entry is None:
            raise KeyError(f"no in-flight aggregation {agg_id}")
        if count > entry.remaining:
            raise ValueError(
                f"aggregation {agg_id} expects {entry.remaining} more "
                f"inputs, got {count}"
            )
        _, finish = self.alu_bank.occupy(
            arrival_ns, (count * self._fold_cycles) / self._ghz
        )
        counters = self.stats._counters
        counters["contributions"] = counters.get("contributions", 0.0) + count
        counters["values"] = (
            counters.get("values", 0.0) + count * entry.width_values
        )
        entry.remaining -= count
        if entry.remaining == 0:
            del self._active[agg_id]
            entry.on_complete(finish)
            self._drain_waitlist()
        return finish

    def _drain_waitlist(self) -> None:
        while self._alloc_waitlist and len(self._active) < self._capacity:
            expected, on_grant = self._alloc_waitlist.popleft()
            self._grant(expected, on_grant, self.now)

    def utilization(self, elapsed_ns: float) -> float:
        """ALU-bank busy fraction over ``elapsed_ns``."""
        return self.alu_bank.utilization(elapsed_ns)
