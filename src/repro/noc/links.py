"""Per-link ledger bookkeeping shared by every NoC backend.

Each directed mesh link is represented by one lazily-created
:class:`~repro.sim.stats.BusyTracker`.  This base class owns that map
and implements the protocol members that are pure bookkeeping — fault
blackouts (:meth:`reserve_link`), wedge detection
(:meth:`stalled_links`), utilization reporting, and the observability
listener hook — so the backends differ only in how
:meth:`~repro.noc.model.NocModel.delivery_time` spends time on those
ledgers (FIFO reservations, flit simulation, or a closed form).

It also owns every message's prologue (:meth:`_account`): node
validation, flit and hop counts, the route, and the message count.
Message shapes repeat endlessly in a simulation — the same feature sizes
over the same few routes — so everything derivable from ``(src, dst,
size_bytes)`` is computed once per shape (:class:`MessageShape`) and a
delivery costs one dict lookup plus one increment of the shape's
``sent`` tally before its backend spends time.  The ``packets`` /
``flits`` / ``bytes`` / ``flit_hops`` counters are sums of ``sent``
times the shape's size terms, derived when :attr:`stats` is read.
"""

from __future__ import annotations

from repro.noc.config import NocConfig, NOC_CONFIG
from repro.noc.model import TrackerListener
from repro.noc.topology import Coord, Mesh
from repro.sim.stats import BusyTracker, StatSet

Link = tuple[Coord, Coord]


class MessageShape:
    """The time-independent terms of one ``(src, dst, size_bytes)`` message.

    The latency terms are the products the backends' formulas used
    inline, computed the same way, so summing them in the formula's
    order gives bit-identical arrival times.
    """

    __slots__ = ("flits", "hops", "bytes", "serialization_ns",
                 "hop_term_ns", "tail_ns", "links", "trackers", "sent")

    def __init__(
        self, config: NocConfig, size_bytes: int, links: tuple[Link, ...]
    ) -> None:
        cycle = config.cycle_ns
        flits = config.flits_for(size_bytes)
        hops = len(links)
        self.flits = flits
        self.hops = hops
        self.bytes = max(size_bytes, 0)
        #: Time the message occupies each link of its route.
        self.serialization_ns = flits * cycle
        #: Head latency at zero load: ``hops`` pipeline stages.
        self.hop_term_ns = hops * (config.hop_cycles * cycle)
        #: Tail-behind-head latency: the remaining flits.
        self.tail_ns = (flits - 1) * cycle
        self.links = links
        #: The route's ledgers, bound on the first message that reserves
        #: them (the same objects as in ``LinkLedgerBase._links``).
        self.trackers: tuple[BusyTracker, ...] | None = None
        #: Messages of this shape sent so far.
        self.sent = 0


class LinkLedgerBase:
    """Directed-link tracker map plus the bookkeeping protocol members.

    All times are in nanoseconds so subclasses plug directly into the
    event-driven accelerator simulation.
    """

    def __init__(self, mesh: Mesh, config: NocConfig = NOC_CONFIG) -> None:
        self.mesh = mesh
        self.config = config
        self._links: dict[Link, BusyTracker] = {}
        self._tracker_listener: TrackerListener | None = None
        self.stats = StatSet(self._derived_counts)
        # (src, dst) -> the route's directed links; the mesh is static,
        # so each pair routes identically forever.
        self._routes: dict[tuple[Coord, Coord], tuple[Link, ...]] = {}
        # (src, dst, size_bytes) -> MessageShape.  Only validated nodes
        # ever get an entry, so a bad node raises on every call.
        self._shapes: dict[tuple[Coord, Coord, int], MessageShape] = {}
        self._hop_ns = config.hop_cycles * config.cycle_ns
        self._local_ns = config.routing_delay_cycles * config.cycle_ns

    def _account(
        self, src: Coord, dst: Coord, size_bytes: int
    ) -> MessageShape:
        """Count one message of its shape and return the shape."""
        shape = self._shapes.get((src, dst, size_bytes))
        if shape is None:
            self.mesh.validate_node(src)
            self.mesh.validate_node(dst)
            shape = MessageShape(self.config, size_bytes,
                                 self._route(src, dst))
            self._shapes[(src, dst, size_bytes)] = shape
        shape.sent += 1
        return shape

    def _derived_counts(self) -> dict[str, float]:
        """The traffic counters, summed over the message shapes."""
        if not self._shapes:
            return {}
        packets = flits = size = flit_hops = 0
        for shape in self._shapes.values():
            sent = shape.sent
            packets += sent
            flits += sent * shape.flits
            size += sent * shape.bytes
            flit_hops += sent * shape.flits * shape.hops
        return {"packets": float(packets), "flits": float(flits),
                "bytes": float(size), "flit_hops": float(flit_hops)}

    def _route(self, src: Coord, dst: Coord) -> tuple[Link, ...]:
        """The directed links of the ``src`` -> ``dst`` route, memoized."""
        key = (src, dst)
        links = self._routes.get(key)
        if links is None:
            links = self._routes[key] = tuple(self.mesh.route_links(src, dst))
        return links

    def _link(self, src: Coord, dst: Coord) -> BusyTracker:
        key = (src, dst)
        tracker = self._links.get(key)
        if tracker is None:
            tracker = BusyTracker()
            self._links[key] = tracker
            if self._tracker_listener is not None:
                self._tracker_listener(key, tracker)
        return tracker

    def attach_tracker_listener(self, listener: TrackerListener) -> None:
        """Call ``listener(link, tracker)`` for every directed link.

        Links are created lazily on first use, so the observability layer
        cannot enumerate them up front; the listener fires immediately for
        links that already exist and again whenever a new one appears.
        Costs one ``is not None`` check per link *creation* (not per
        packet) when nothing is attached.
        """
        if self._tracker_listener is not None:
            raise RuntimeError("a tracker listener is already attached")
        self._tracker_listener = listener
        for key, tracker in self._links.items():
            listener(key, tracker)

    @property
    def links_used(self) -> int:
        """Number of directed links that carried at least one packet."""
        return len(self._links)

    def reserve_link(
        self, src: Coord, dst: Coord, start_ns: float, duration_ns: float
    ) -> None:
        """Occupy one directed link for a blackout interval.

        Fault-injection hook: packets routed over the link after the
        reservation are delayed behind it, exactly as if the router were
        wedged for ``duration_ns``.  Raises :class:`ValueError` unless
        ``src`` -> ``dst`` is a link of the mesh (torus wraparound
        included): a blackout of any other pair would delay nothing yet
        show up in every link report.
        """
        self.mesh.validate_node(src)
        self.mesh.validate_node(dst)
        if dst not in self.mesh.neighbors(src):
            raise ValueError(f"{src}->{dst} is not a link of {self.mesh}")
        self._link(src, dst).occupy(start_ns, duration_ns)

    def stalled_links(
        self, now_ns: float, horizon_ns: float
    ) -> list[tuple[tuple[Coord, Coord], float]]:
        """Directed links reserved further than ``horizon_ns`` past ``now_ns``.

        A link busy that far into the future is wedged, not contended —
        used by watchdog diagnoses to name the stuck component.
        """
        return [
            (link, tracker.busy_until)
            for link, tracker in self._links.items()
            if tracker.busy_until > now_ns + horizon_ns
        ]

    def link_utilization(
        self, elapsed_ns: float
    ) -> dict[tuple[Coord, Coord], float]:
        """Busy fraction of every used link over ``elapsed_ns``."""
        return {
            link: tracker.utilization(elapsed_ns)
            for link, tracker in self._links.items()
        }

    def max_link_utilization(self, elapsed_ns: float) -> float:
        """Utilization of the hottest link (0.0 if nothing was sent)."""
        if not self._links:
            return 0.0
        return max(self.link_utilization(elapsed_ns).values())
