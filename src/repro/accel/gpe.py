"""Graph Processing Element (GPE) model.

The GPE (Figure 4) is a general-purpose control core running a
lightweight runtime that manages a pool of software threads.  Whenever a
thread issues a non-blocking memory request it context-switches (in a
single cycle, Section IV) to another thread, so memory latency is hidden
up to the thread-pool size — but every runtime action still consumes GPE
issue slots, which is why traversal-dominated models (PGNN) become
GPE-bound (Section VI-A).

The model is an event-driven serial issue server: runtime actions occupy
the core for their instruction budget, and a counting semaphore bounds
the number of vertex programs in flight.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

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

    # -- issue server -----------------------------------------------------

    def issue(self, instructions: int, ready_ns: float) -> float:
        """Execute ``instructions`` on the core after ``ready_ns``.

        Returns the finish time.  Each issue models one runtime action and
        includes the single-cycle context switch back onto this thread.
        """
        if instructions < 0:
            raise ValueError("instruction count cannot be negative")
        cycles = instructions + self.costs.context_switch_cycles
        _, finish = self.core.occupy(ready_ns, self.clock.cycles_to_ns(cycles))
        self.stats.add("issues")
        self.stats.add("instructions", instructions)
        return finish

    def issue_ns(
        self, duration_ns: float, instructions: int, ready_ns: float
    ) -> float:
        """:meth:`issue` with the duration precomputed by the caller.

        ``duration_ns`` must equal
        ``clock.cycles_to_ns(instructions + context_switch_cycles)`` —
        the runtime engine batches that arithmetic per layer (numpy over
        all tasks at once) and hands the exact same float back here, so
        results are bit-identical to per-call :meth:`issue` while the hot
        loop skips the validation, the cycle math, and two counter-method
        dispatches per runtime action.
        """
        _, finish = self.core.occupy(ready_ns, duration_ns)
        counters = self.stats._counters
        counters["issues"] = counters.get("issues", 0.0) + 1.0
        counters["instructions"] = (
            counters.get("instructions", 0.0) + instructions
        )
        return finish

    # -- software thread pool ----------------------------------------------

    @property
    def free_threads(self) -> int:
        return self._free_threads

    @property
    def waiting_threads(self) -> int:
        """Vertex programs queued for a software thread (diagnostics)."""
        return len(self._thread_waitlist)

    def acquire_thread(self, on_grant: Callable[[], None]) -> None:
        """Claim a software thread; grants FIFO when one is free."""
        self.acquire_thread_at(lambda _grant_ns: on_grant())

    def acquire_thread_at(self, on_grant: Callable[[float], None]) -> None:
        """Claim a software thread; ``on_grant(grant_ns)`` fires FIFO.

        ``grant_ns`` is the simulated time of the grant: the current time
        for an immediate grant, or the release time passed to
        :meth:`release_thread` for a deferred one.
        """
        if self._free_threads > 0:
            self._free_threads -= 1
            self.stats.add("thread_grants")
            on_grant(self.now)
        else:
            self.stats.add("thread_stalls")
            self._thread_waitlist.append(on_grant)

    def release_thread(self, now: float | None = None) -> None:
        """Return a thread to the pool, waking the oldest waiter.

        ``now`` is the simulated time of the release (defaults to
        ``sim.now``); a woken waiter receives it as its grant time.
        """
        if self._thread_waitlist:
            self.stats.add("thread_grants")
            waiter = self._thread_waitlist.popleft()
            waiter(self.now if now is None else now)
        else:
            self._free_threads += 1
            if self._free_threads > self.config.gpe_threads:
                raise RuntimeError("released more threads than the pool holds")

    def utilization(self, elapsed_ns: float) -> float:
        """Core-busy fraction over ``elapsed_ns``."""
        return self.core.utilization(elapsed_ns)
