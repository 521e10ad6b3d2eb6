"""Zero-contention closed-form NoC model (the ``"analytical"`` backend).

Delivery time is the wormhole zero-load latency — ``hops * hop_cycles +
(flits - 1)`` NoC cycles past injection — with no link serialization at
all, so a sweep-scale run spends O(1) per message instead of one FIFO
reservation per hop.  It is the right fidelity when the question being
swept (clock scaling, bandwidth scaling, tile counts) is not about NoC
contention.  At zero load it equals the packet model bit for bit when
messages start at whole nanoseconds (``tests/noc/test_backends.py``); at
fractional start times the two round their hop sums differently (a
product here, one addition per hop there) and may differ by an ulp.
Per message, on one injection sequence, it is never later than the
packet model beyond that rounding (``tests/noc/test_noc_properties.py``).

Why it is fast: the hot path never touches a per-link ledger.  Each
message adds its serialization time to a per-*route* accumulator (one
dict update), and the per-link busy map the utilization report needs is
expanded from those route totals only when somebody asks — once per
simulation, not once per hop per message.  Both the bare and the
observed run read utilization from the same accumulators, so the report
stays bit-identical whether or not an observer is attached
(``tests/obs/test_zero_perturbation.py``).

What it still models faithfully:

* **Fault blackouts.** :meth:`reserve_link` wedges a link's ledger; a
  message routed over a wedged link walks its route and waits out the
  blackout (head-of-line, like the packet model), so fault-injection
  campaigns and watchdog stalled-link diagnoses keep working.  The walk
  only happens once a reservation exists — fault-free sweeps never pay
  for it.
* **Observability.** With a tracker listener attached (``profile
  --trace``), every message records its per-link busy spans — placed at
  the zero-load head-arrival times — so exported timelines show NoC
  link rows for this backend too.  Spans are *recorded*, never
  *reserved* (:meth:`~repro.sim.stats.BusyTracker.record_span`), so the
  bookkeeping adds no contention, and ``busy_until`` still moves only
  through fault reservations, which keeps ``stalled_links`` wedge
  detection meaningful.
"""

from __future__ import annotations

from repro.noc.config import NocConfig, NOC_CONFIG
from repro.noc.links import Link, LinkLedgerBase
from repro.noc.model import TrackerListener
from repro.noc.topology import Coord, Mesh


class AnalyticalNetwork(LinkLedgerBase):
    """Closed-form latency model over a 2D mesh (no contention)."""

    def __init__(self, mesh: Mesh, config: NocConfig = NOC_CONFIG) -> None:
        super().__init__(mesh, config)
        # (src, dst) -> total serialization time sent over that route.
        # This is the authoritative busy accounting: per-link busy time
        # is the sum over routes crossing the link, expanded lazily.
        self._route_busy_ns: dict[tuple[Coord, Coord], float] = {}
        # Blackout time per link (reserve_link), kept separately so the
        # utilization report includes it without reading tracker state
        # that differs between observed and bare runs.
        self._blackout_ns: dict[Link, float] = {}
        # True once any fault reservation exists: only then can a
        # message be delayed, so only then does the hot path walk links.
        self._delays_possible = False

    def delivery_time(
        self,
        src: Coord,
        dst: Coord,
        size_bytes: int,
        start_ns: float,
    ) -> float:
        """Zero-load tail-arrival time, delayed only by fault blackouts."""
        shape = self._shapes[src, dst, size_bytes]
        shape.sent += 1
        if src == dst:
            # Local delivery through the tile crossbar: one routing pass.
            return start_ns + self._local_ns

        serialization = shape.serialization_ns
        route_busy = self._route_busy_ns
        key = (src, dst)
        route_busy[key] = route_busy.get(key, 0.0) + serialization

        zero_load = start_ns + shape.hop_term_ns + shape.tail_ns
        observed = self._tracker_listener is not None
        if not observed and not self._delays_possible:
            # Hot path: no observer, no fault reservations — nothing can
            # delay the message and nobody needs per-hop spans.
            return zero_load

        hop = self._hop_ns
        head = start_ns
        delayed = False
        for link in shape.links:
            tracker = self._link(*link) if observed else self._links.get(link)
            if tracker is not None:
                if tracker.busy_until > head:
                    # Wait out a blackout reservation, but never add one
                    # (record_span leaves busy_until alone, so only
                    # faults ever set this).
                    head = tracker.busy_until
                    delayed = True
                if observed:
                    tracker.record_span(start_ns, head, head + serialization)
            head += hop
        if not delayed:
            # The walk re-derives zero_load with different floating-point
            # associativity; return the closed form so every caller sees
            # the exact packet-model zero-load number.
            return zero_load
        return head + shape.tail_ns

    def reserve_link(
        self, src: Coord, dst: Coord, start_ns: float, duration_ns: float
    ) -> None:
        super().reserve_link(src, dst, start_ns, duration_ns)
        key = (src, dst)
        self._blackout_ns[key] = self._blackout_ns.get(key, 0.0) + duration_ns
        self._delays_possible = True

    def attach_tracker_listener(self, listener: TrackerListener) -> None:
        if self._tracker_listener is not None:
            raise RuntimeError("a tracker listener is already attached")
        # The hot path creates no trackers, so materialise one for every
        # link that already carried traffic; the base replay then shows
        # the listener all of them.
        for src, dst in self._route_busy_ns:
            for link in self._route(src, dst):
                self._link(*link)
        super().attach_tracker_listener(listener)

    def _link_busy_ns(self) -> dict[Link, float]:
        """Per-link busy time, expanded from route totals + blackouts."""
        busy: dict[Link, float] = {}
        for (src, dst), total in self._route_busy_ns.items():
            for link in self._route(src, dst):
                busy[link] = busy.get(link, 0.0) + total
        for link, blackout in self._blackout_ns.items():
            busy[link] = busy.get(link, 0.0) + blackout
        return busy

    @property
    def links_used(self) -> int:
        links = set(self._links)
        for src, dst in self._route_busy_ns:
            links.update(self._route(src, dst))
        return len(links)

    def link_utilization(self, elapsed_ns: float) -> dict[Link, float]:
        busy = self._link_busy_ns()
        if elapsed_ns <= 0:
            return {link: 0.0 for link in busy}
        return {
            link: min(1.0, total / elapsed_ns) for link, total in busy.items()
        }

    def max_link_utilization(self, elapsed_ns: float) -> float:
        per_link = self.link_utilization(elapsed_ns)
        if not per_link:
            return 0.0
        return max(per_link.values())
