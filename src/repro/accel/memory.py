"""Bandwidth-latency memory controller model (paper Section V).

"For the memory controllers, we implement a simple bandwidth-latency model
that enqueues up to 32 requests and services them in order according to
the latency and bandwidth configuration.  Each memory module is capable of
servicing 68GBps ... We assume a memory access granularity of 64B, and
requests which are not integer multiples of 64B and properly aligned will
result in wasted DRAM bandwidth."
"""

from __future__ import annotations

import math
from collections import deque

from repro.accel.config import MemoryConfig
from repro.sim.clock import Clock
from repro.sim.kernel import Simulator
from repro.sim.module import Module
from repro.sim.stats import BusyTracker


class MemoryController(Module):
    """One memory node servicing aligned 64B bursts in order."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: MemoryConfig = MemoryConfig(),
    ) -> None:
        # The DRAM channel timing is independent of the tile clock; a
        # 1 GHz bookkeeping clock keeps cycle reports meaningful.
        super().__init__(sim, name, Clock(1.0))
        self.config = config
        self.channel = BusyTracker()
        # Completion times of the last ``queue_depth`` batches: the
        # in-order queue's occupants, oldest first.
        self._completions: deque[float] = deque(maxlen=config.queue_depth)
        # Request sizes repeat heavily (a layer issues the same feature /
        # block / burst sizes for every task), so alignment is memoized
        # per size.
        self._aligned_memo: dict[int, int] = {}
        # Integer tallies: requests per request size, reads and writes
        # apart, and queue stalls.  Every request and byte counter is
        # derived from them (:meth:`_derived_counts`).
        self._reads: dict[int, int] = {}
        self._writes: dict[int, int] = {}
        self._queue_stalls = 0

    def aligned_size(self, size_bytes: int) -> int:
        """Request size rounded up to the access granularity."""
        if size_bytes < 0:
            raise ValueError("request size cannot be negative")
        gran = self.config.access_granularity_bytes
        return max(gran, math.ceil(size_bytes / gran) * gran)

    def request_scatter(
        self, count: int, size_each_bytes: int, now: float, write: bool = False
    ) -> float:
        """Issue ``count`` independent requests as one batch.

        The batch is accepted once a slot in the 32-entry in-order queue
        frees, serialized on the channel at the configured bandwidth, and
        completes one fixed DRAM latency later; returns that completion
        time.  Each request is aligned individually, so a 4B traversal
        read still costs a full 64B burst of DRAM bandwidth.  A single
        read or write is a batch of one; gather/scatter phases
        (per-neighbour feature reads, traversal visits) batch many, since
        simulating every request as a separate event would be
        prohibitive.
        """
        if count < 0:
            raise ValueError("request count cannot be negative")
        if count == 0:
            return now
        aligned_each = self._aligned_memo.get(size_each_bytes)
        if aligned_each is None:
            aligned_each = self.aligned_size(size_each_bytes)
            self._aligned_memo[size_each_bytes] = aligned_each
        completions = self._completions
        accept = now
        if len(completions) == completions.maxlen:
            # In-order queue: the oldest outstanding request must finish
            # before this one can occupy its slot.
            oldest = completions[0]
            if oldest > accept:
                accept = oldest
                self._queue_stalls += 1
        transfer_ns = count * aligned_each / self.config.bandwidth_gbps
        _, channel_done = self.channel.occupy(accept, transfer_ns)
        completion = channel_done + self.config.latency_ns
        completions.append(completion)
        sizes = self._writes if write else self._reads
        sizes[size_each_bytes] = sizes.get(size_each_bytes, 0) + count
        return completion

    # -- reporting ---------------------------------------------------------

    def _derived_counts(self) -> dict[str, float]:
        counts = {}
        if self._queue_stalls:
            counts["queue_stalls"] = float(self._queue_stalls)
        if self._reads:
            counts["reads"] = float(sum(self._reads.values()))
        if self._writes:
            counts["writes"] = float(sum(self._writes.values()))
        if self._reads or self._writes:
            batches = [*self._reads.items(), *self._writes.items()]
            requested = sum(count * size for size, count in batches)
            serviced = sum(count * self._aligned_memo[size]
                           for size, count in batches)
            counts["requests"] = (counts.get("reads", 0.0)
                                  + counts.get("writes", 0.0))
            counts["bytes_requested"] = float(requested)
            counts["bytes_serviced"] = float(serviced)
            counts["bytes_wasted"] = float(serviced - requested)
        return counts

    def bytes_serviced(self) -> float:
        """Total DRAM traffic including alignment waste."""
        return self.stats.get("bytes_serviced")

    def bandwidth_utilization(self, elapsed_ns: float) -> float:
        """Fraction of peak bandwidth sustained over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        peak_bytes = self.config.bandwidth_gbps * elapsed_ns
        return min(1.0, self.bytes_serviced() / peak_bytes)
