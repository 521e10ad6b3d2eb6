"""Packet-granularity NoC contention model.

The whole-benchmark accelerator simulations move millions of flits; a
flit-level model in Python would be intractable at Pubmed scale.  This
model keeps the Table IV timing (per-hop routing + link latency, 64B
flits, one flit per link per cycle) but resolves contention per *packet*:
every directed mesh link is a serialized resource that a packet occupies
for its serialization time, and overlapping packets queue FIFO.

Pipelining is preserved: a packet's head proceeds hop by hop while its
tail is still serializing, so the zero-load latency matches the wormhole
model: ``hops * hop_cycles + (flits - 1)`` cycles.

This is the default :class:`~repro.noc.model.NocModel` backend
(``"packet"`` in :mod:`repro.noc.backends`); the link bookkeeping —
fault blackouts, stalled-link diagnosis, utilization reporting, the
observability listener — lives in the shared
:class:`~repro.noc.links.LinkLedgerBase`.

Why it is fast: the base memoizes every ``(src, dst, size_bytes)``
message shape — validated nodes, flit and hop counts, the route — and
this model binds each shape's route to its link ledgers on the first
message that reserves them.  A delivery then costs one memo lookup and
one :meth:`~repro.sim.stats.BusyTracker.occupy` per hop.  The ledgers
are the base's own trackers, so fault blackouts reserved later and
listeners attached later see exactly what a hop-by-hop walk would.
"""

from __future__ import annotations

from repro.noc.links import LinkLedgerBase
from repro.noc.topology import Coord


class PacketNetwork(LinkLedgerBase):
    """Fast contention model over a 2D mesh.

    All times are in nanoseconds so the model plugs directly into the
    event-driven accelerator simulation.
    """

    def delivery_time(
        self,
        src: Coord,
        dst: Coord,
        size_bytes: int,
        start_ns: float,
    ) -> float:
        """Time at which the packet's tail arrives at ``dst``.

        Reserves serialization time on every XY-route link, so later
        packets crossing the same links queue behind this one.
        """
        shape = self._shapes[src, dst, size_bytes]
        shape.sent += 1
        if src == dst:
            # Local delivery through the tile crossbar: one routing pass.
            return start_ns + self._local_ns

        trackers = shape.trackers
        if trackers is None:
            # Bind the live ledgers once; _link creates missing ones and
            # tells an attached listener about them.
            trackers = shape.trackers = tuple(
                self._link(*link) for link in shape.links
            )
        serialization = shape.serialization_ns
        hop = self._hop_ns
        head = start_ns
        for tracker in trackers:
            granted_start, _ = tracker.occupy(head, serialization)
            # The head flit crosses this hop as soon as the link grants it.
            head = granted_start + hop
        # The tail follows the head by the remaining serialization time.
        return head + shape.tail_ns
