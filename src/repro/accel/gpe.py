"""Graph Processing Element (GPE) model.

The GPE (Figure 4) is a general-purpose control core running a
lightweight runtime that manages a pool of software threads.  Whenever a
thread issues a non-blocking memory request it context-switches (in a
single cycle, Section IV) to another thread, so memory latency is hidden
up to the thread-pool size — but every runtime action still consumes GPE
issue slots, which is why traversal-dominated models (PGNN) become
GPE-bound (Section VI-A).

The model is an event-driven serial issue server: runtime actions occupy
the core for their instruction budget (:meth:`GraphPE.service_ns`, the
one cost formula, then :meth:`GraphPE.issue_ns`, the one occupy call),
and a counting semaphore bounds the number of vertex programs in flight.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.accel.config import TileConfig
from repro.sim.clock import Clock
from repro.sim.kernel import Simulator
from repro.sim.module import Module
from repro.sim.stats import BusyTracker


class GraphPE(Module):
    """Serial control core with a software thread pool."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: TileConfig,
        clock: Clock,
    ) -> None:
        super().__init__(sim, name, clock)
        self.config = config
        self.costs = config.gpe_costs
        self.core = BusyTracker()
        self._free_threads = config.gpe_threads
        # Waiters take the grant time (ns) so a caller that already knows
        # the release time can thread it through without reading sim.now.
        self._thread_waitlist: deque[Callable[[float], None]] = deque()
        # Integer tallies behind the issue and thread-pool counters.
        self._issues = 0
        self._instructions = 0
        self._thread_grants = 0
        self._thread_stalls = 0

    # -- issue server -----------------------------------------------------

    def service_ns(
        self, instructions: int | np.ndarray
    ) -> float | np.ndarray:
        """Core time of a runtime action of ``instructions`` instructions.

        Each action includes the single-cycle context switch back onto
        its thread.  ``instructions`` is a count or a numpy array of
        counts (the engine's per-layer tables); the array form is the
        scalar formula applied element by element.
        """
        if np.any(instructions < 0):
            raise ValueError("instruction count cannot be negative")
        return self.clock.cycles_to_ns(
            instructions + self.costs.context_switch_cycles
        )

    def issue_ns(
        self, duration_ns: float, instructions: int, ready_ns: float
    ) -> float:
        """Execute one runtime action on the core after ``ready_ns``.

        ``duration_ns`` is ``service_ns(instructions)``, which the caller
        computes (the runtime engine tabulates it once per layer).
        Returns the finish time.
        """
        _, finish = self.core.occupy(ready_ns, duration_ns)
        self._issues += 1
        self._instructions += instructions
        return finish

    # -- software thread pool ----------------------------------------------

    @property
    def free_threads(self) -> int:
        return self._free_threads

    @property
    def waiting_threads(self) -> int:
        """Vertex programs queued for a software thread (diagnostics)."""
        return len(self._thread_waitlist)

    def acquire_thread_at(self, on_grant: Callable[[float], None]) -> None:
        """Claim a software thread; ``on_grant(grant_ns)`` fires FIFO.

        ``grant_ns`` is the simulated time of the grant: the current time
        for an immediate grant, or the release time passed to
        :meth:`release_thread` for a deferred one.
        """
        if self._free_threads > 0:
            self._free_threads -= 1
            self._thread_grants += 1
            on_grant(self.sim._now)
        else:
            self._thread_stalls += 1
            self._thread_waitlist.append(on_grant)

    def release_thread(self, now: float) -> None:
        """Return a thread to the pool, waking the oldest waiter.

        ``now`` is the simulated time of the release; a woken waiter
        receives it as its grant time.
        """
        if self._thread_waitlist:
            self._thread_grants += 1
            waiter = self._thread_waitlist.popleft()
            waiter(now)
        else:
            self._free_threads += 1
            if self._free_threads > self.config.gpe_threads:
                raise RuntimeError("released more threads than the pool holds")

    def _derived_counts(self) -> dict[str, float]:
        counts = {}
        if self._issues:
            counts["issues"] = float(self._issues)
            counts["instructions"] = float(self._instructions)
        if self._thread_grants:
            counts["thread_grants"] = float(self._thread_grants)
        if self._thread_stalls:
            counts["thread_stalls"] = float(self._thread_stalls)
        return counts

    def utilization(self, elapsed_ns: float) -> float:
        """Core-busy fraction over ``elapsed_ns``."""
        return self.core.utilization(elapsed_ns)
