"""DNN Queue (DNQ) model.

The DNQ stages inputs for the DNA (Figure 6): a 62kB scratchpad holds
queue entries with per-4B-word ready bits so space can be *allocated
before the data arrives* (delayed enqueue — the GPE reserves an entry,
then the memory response fills it over the NoC).  Two virtual queues
share the scratchpad; because there is a single dequeue interface, only
one queue may dequeue at a time, and a *lazy switching* policy only
switches the eligible queue after the DNA has been idle for 16 cycles.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.accel.config import TileConfig
from repro.accel.dna import DnaUnit
from repro.sim.clock import Clock
from repro.sim.kernel import Simulator
from repro.sim.module import Module


class DnnQueue(Module):
    """Delayed-enqueue staging buffer feeding the DNA."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: TileConfig,
        dna: DnaUnit,
        clock: Clock,
    ) -> None:
        super().__init__(sim, name, clock)
        self.config = config
        self.dna = dna
        self._entry_bytes = 256
        self._capacity = config.max_dnq_entries(self._entry_bytes)
        self._slots_in_use = 0
        self._reserve_waitlist: deque[Callable[[], None]] = deque()
        self._active_queue = 0
        self.num_queues = 2
        # Lazy-switch penalty is a configuration constant; memoized so
        # the (rare) switch path and the per-entry accounting stay cheap.
        self._switch_ns = clock.cycles_to_ns(config.dnq_idle_switch_cycles)
        # Integer tallies behind the ``reservations`` and ``entries``
        # counters; the rare stalls and switches go to ``stats.add``.
        self._reservations = 0
        self._entries = 0

    # -- layer configuration ------------------------------------------------

    def configure(self, entry_bytes: int) -> None:
        """Set the per-entry size for the upcoming layer.

        Issued over the allocation bus during the inter-layer barrier, so
        the queue is empty when the geometry changes.
        """
        if self._slots_in_use:
            raise RuntimeError("cannot reconfigure a non-empty DNQ")
        self._entry_bytes = max(4, entry_bytes)
        self._capacity = self.config.max_dnq_entries(self._entry_bytes)

    @property
    def capacity(self) -> int:
        """Entry slots available at the current configuration."""
        return self._capacity

    @property
    def slots_in_use(self) -> int:
        return self._slots_in_use

    @property
    def waiting_reservations(self) -> int:
        """Reservation requests queued for a free slot (diagnostics)."""
        return len(self._reserve_waitlist)

    # -- delayed enqueue -----------------------------------------------------

    def reserve(self, on_grant: Callable[[], None]) -> None:
        """Reserve an entry slot; ``on_grant`` fires when one is available.

        This is the allocation-bus request the GPE issues before the data
        exists; the grant may be immediate (same event) or deferred until
        another entry dequeues.
        """
        if self._slots_in_use < self._capacity:
            self._slots_in_use += 1
            self._reservations += 1
            on_grant()
        else:
            self.stats.add("reservation_stalls")
            self._reserve_waitlist.append(on_grant)

    def fill(
        self,
        ready_ns: float,
        duration_ns: float,
        macs: int,
        on_complete: Callable[[float], None],
        queue_id: int = 0,
    ) -> None:
        """Mark a reserved entry ready and dispatch it to the DNA.

        ``ready_ns`` is when the last word's ready bit was set (the memory
        response finished arriving over the NoC).  ``duration_ns`` is the
        job's ``dna.service_ns(macs, efficiency)`` (the engine's
        per-layer table).  The completion callback receives the DNA
        finish time.
        """
        if not 0 <= queue_id < self.num_queues:
            raise ValueError(f"queue_id must be 0..{self.num_queues - 1}")
        ready = ready_ns
        if queue_id != self._active_queue:
            # Lazy switching: the eligible queue only changes after the
            # DNA has sat idle for the configured window.
            ready = max(ready, self.dna.tracker.busy_until) + self._switch_ns
            self._active_queue = queue_id
            self.stats.add("queue_switches")
        self._entries += 1
        start, finish = self.dna.execute_ns(duration_ns, macs, ready)
        # The scratchpad slot frees once the DNA consumes the entry.
        now = self.sim._now
        release = start if start > now else now
        self.sim.post_at(release, self._release_slot)
        on_complete(finish)

    def _release_slot(self) -> None:
        if self._reserve_waitlist:
            # Hand the slot straight to the oldest waiter.
            self._reservations += 1
            waiter = self._reserve_waitlist.popleft()
            waiter()
        else:
            self._slots_in_use -= 1

    def _derived_counts(self) -> dict[str, float]:
        counts = {}
        if self._reservations:
            counts["reservations"] = float(self._reservations)
        if self._entries:
            counts["entries"] = float(self._entries)
        return counts
