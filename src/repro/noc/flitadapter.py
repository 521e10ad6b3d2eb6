"""Flit-level NoC backend: drives :class:`FlitNetwork` per message batch.

The execution stack asks for delivery times synchronously
(:meth:`~repro.noc.model.NocModel.delivery_time` must return a
timestamp the engine chains further reservations on), while
:class:`~repro.noc.flitnet.FlitNetwork` is a cycle-stepped simulator.
This adapter bridges the two with **windowed batch re-simulation**:

* every answered message joins a sliding window of recent traffic,
  pruned to the messages whose (last-estimated) in-flight interval can
  still overlap the new message;
* a message that arrives while the window is empty is answered with the
  closed-form zero-load latency — exactly what the wormhole simulator
  produces for a lone packet (``tests/noc/test_flitnet.py``), so no
  cycles are burned when there is nothing to contend with;
* otherwise a fresh :class:`FlitNetwork` replays the whole batch —
  every window message injected at its own start cycle — and steps
  until the new message's tail ejects.  Its latency therefore includes
  genuine wormhole effects (per-VC buffering, credit backpressure,
  round-robin arbitration, head-of-line blocking) against the traffic
  it actually overlaps.

Approximations, stated plainly: the window only contains messages
*requested before* this one (call-order causality, the same artifact the
packet model's FIFO ledgers have); earlier messages keep the latency
they were answered with even if later traffic would have slowed them;
start times are quantized to NoC cycles; and the window is capped at
:data:`MAX_BATCH` messages (oldest dropped first).  Re-simulation is
O(batch × transit) per message — tractable for the small Table VI
configs this backend targets, intractable at Pubmed scale (use
``"packet"`` there; that trade *is* the backend axis).

Fault blackouts (:meth:`reserve_link`) delay a message's injection past
the blackout of any route link, and per-link busy spans are recorded at
zero-load head-arrival offsets for utilization/timeline reporting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.noc.flitnet import FlitNetwork
from repro.noc.links import LinkLedgerBase
from repro.noc.packet import Packet
from repro.noc.topology import Coord

#: Window cap: messages of one replayed batch (oldest pruned first).
MAX_BATCH = 64

#: Hard ceiling on one batch replay, in simulated NoC cycles beyond the
#: target's injection: far above any legal drain of MAX_BATCH messages
#: on a Table VI mesh, so a routing bug fails loudly instead of hanging.
MAX_REPLAY_CYCLES = 1_000_000


@dataclass
class _Message:
    """One answered message retained for future batch replays."""

    src: Coord
    dst: Coord
    size_bytes: int
    start_cycle: int
    end_cycle: int  # last-estimated tail-ejection cycle


class FlitNetworkAdapter(LinkLedgerBase):
    """Whole-benchmark :class:`~repro.noc.model.NocModel` at flit fidelity."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._window: deque[_Message] = deque()

    # -- protocol hot path --------------------------------------------------

    def delivery_time(
        self,
        src: Coord,
        dst: Coord,
        size_bytes: int,
        start_ns: float,
    ) -> float:
        """Tail-arrival time from a batch replay of overlapping traffic."""
        shape = self._shapes[src, dst, size_bytes]
        shape.sent += 1
        if src == dst:
            # Local delivery through the tile crossbar: one routing pass.
            return start_ns + self._local_ns

        config = self.config
        cycle = config.cycle_ns
        links = shape.links
        # Fault blackouts delay injection past any wedged route link.
        head_ns = start_ns
        if self._links:
            for link in links:
                tracker = self._links.get(link)
                if tracker is not None:
                    head_ns = max(head_ns, tracker.busy_until)

        start_cycle = int(round(head_ns / cycle))
        while self._window and self._window[0].end_cycle <= start_cycle:
            self._window.popleft()
        while len(self._window) >= MAX_BATCH:
            self._window.popleft()

        message = _Message(src, dst, size_bytes, start_cycle, 0)
        if not self._window:
            # Lone packet: the wormhole pipeline's exact zero-load latency.
            latency = shape.hops * config.hop_cycles + shape.flits - 1
        else:
            latency = self._replay(message)
        message.end_cycle = start_cycle + latency
        self._window.append(message)

        serialization = shape.serialization_ns
        hop = self._hop_ns
        for index, link in enumerate(links):
            # Reporting spans at zero-load head offsets; contention shows
            # up in the returned latency, not in the span placement.
            span_start = head_ns + index * hop
            self._link(*link).record_span(
                start_ns, span_start, span_start + serialization
            )
        return head_ns + latency * cycle

    # -- batch replay -------------------------------------------------------

    def _replay(self, message: _Message) -> int:
        """Simulate the window plus ``message``; return its latency in cycles.

        The replay network starts at the batch's earliest start cycle;
        every message injects at its own cycle, so the new message's tail
        ejection reflects flit-level contention with everything it
        overlaps.  Retained messages get their ``end_cycle`` estimates
        refreshed from this (better-informed) replay when they deliver
        inside it.
        """
        batch = sorted(
            [*self._window, message], key=lambda m: m.start_cycle
        )
        base = batch[0].start_cycle
        net = FlitNetwork(self.mesh.width, self.mesh.height, self.config)
        packets = {
            id(entry): Packet(entry.src, entry.dst, entry.size_bytes)
            for entry in batch
        }
        target = packets[id(message)]
        pending = deque(batch)
        deadline = (message.start_cycle - base) + MAX_REPLAY_CYCLES
        while target.delivered_cycle is None:
            while pending and pending[0].start_cycle - base <= net.cycle:
                net.inject(packets[id(pending.popleft())])
            if pending and net.idle():
                net.cycle = pending[0].start_cycle - base
                continue
            if net.cycle > deadline:
                raise RuntimeError(
                    f"flit backend: batch of {len(batch)} messages did not "
                    f"deliver within {MAX_REPLAY_CYCLES} cycles"
                )
            net.step()
        for entry in batch:
            delivered = packets[id(entry)].delivered_cycle
            if delivered is not None:
                entry.end_cycle = base + delivered
        return (base + target.delivered_cycle) - message.start_cycle
