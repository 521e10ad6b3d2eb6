"""Cycle-stepped flit-level wormhole NoC model with virtual channels.

A faithful (if simplified) input-queued wormhole router network:

* packets are segmented into 64B flits (Table IV),
* each router input port has ``num_vcs`` virtual channels of
  ``input_buffer_flits`` flits with credit-based backpressure (Table IV's
  4-flit buffers; one VC by default, matching the paper's table),
* XY dimension-ordered minimal routing,
* per-hop latency = routing delay + link delay (1 + 1 cycles),
* head flits allocate a free downstream VC and hold it to the tail
  (wormhole switching per VC), and
* one flit per output port per cycle with round-robin arbitration across
  the competing (input port, VC) pairs.

With more than one VC, packets blocked behind an unrelated stalled packet
can overtake it on another channel — the classic head-of-line-blocking
fix, exercised by ``tests/noc/test_virtual_channels.py``.

The model is deterministic: routers are processed in a fixed order and
all arbitration is round-robin.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.noc.config import NocConfig, NOC_CONFIG
from repro.noc.packet import Packet
from repro.noc.topology import Coord, Mesh, step, xy_direction

_DIRECTIONS = ("E", "W", "N", "S", "L")
_OPPOSITE = {"E": "W", "W": "E", "N": "S", "S": "N"}


@dataclass
class Flit:
    """One link-width slice of a packet."""

    packet: Packet
    index: int
    is_head: bool
    is_tail: bool
    #: The VC its packet enters at the source router.
    injection_vc: int


class _VirtualChannel:
    """One FIFO lane of an input port."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.buffer: deque[Flit] = deque()
        self.reserved = 0  # slots promised to in-flight flits
        # Per-packet switching state, set when the head is routed.
        self.out_dir: str | None = None
        self.out_vc: int | None = None

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self.buffer) - self.reserved

    def reserve(self) -> None:
        if self.free_slots <= 0:
            raise RuntimeError("reserving beyond VC capacity")
        self.reserved += 1

    def deliver(self, flit: Flit) -> None:
        self.reserved -= 1
        self.buffer.append(flit)

    def clear_route(self) -> None:
        self.out_dir = None
        self.out_vc = None


class _InputPort:
    """A set of virtual channels sharing one physical input."""

    def __init__(self, num_vcs: int, capacity: int) -> None:
        self.vcs = [_VirtualChannel(capacity) for _ in range(num_vcs)]

    def occupied(self) -> bool:
        return any(vc.buffer or vc.reserved for vc in self.vcs)


class _Router:
    """One mesh router: five input ports, per-output VC allocation."""

    def __init__(self, coord: Coord, config: NocConfig) -> None:
        self.coord = coord
        num_vcs = config.num_vcs
        self.inputs = {
            d: _InputPort(num_vcs, config.input_buffer_flits)
            for d in _DIRECTIONS
        }
        # Which packet currently owns each downstream VC of each output.
        self.vc_owner: dict[str, list[int | None]] = {
            d: [None] * num_vcs for d in _DIRECTIONS
        }
        self.rr_input = {d: 0 for d in _DIRECTIONS}
        self.rr_vc = {d: 0 for d in _DIRECTIONS}

    def output_for(self, dst: Coord) -> str:
        """XY routing decision for a flit parked at this router.

        Delegates to the shared :func:`repro.noc.topology.xy_direction`
        so the flit-level route can never diverge from the link sequence
        the packet/analytical models reserve (``Mesh.route_links``).
        """
        return xy_direction(self.coord, dst)


def _neighbor(coord: Coord, direction: str) -> Coord:
    return step(coord, direction)


class FlitNetwork:
    """A cycle-accurate 2D-mesh wormhole network.

    Usage::

        net = FlitNetwork(4, 4)
        net.inject(Packet(src=(0, 0), dst=(3, 3), size_bytes=256))
        delivered = net.run()
    """

    def __init__(
        self, width: int, height: int, config: NocConfig = NOC_CONFIG
    ) -> None:
        self.mesh = Mesh(width, height)
        self.config = config
        self.routers = {c: _Router(c, config) for c in self.mesh.nodes()}
        self.injection: dict[Coord, deque[Flit]] = {
            c: deque() for c in self.mesh.nodes()
        }
        self.cycle = 0
        self.delivered: list[Packet] = []
        self._in_flight: list[tuple[int, Coord, str, int, Flit]] = []
        self.link_flits: dict[tuple[Coord, Coord], int] = {}
        self.total_flits = 0
        self.injected_packets = 0

    # -- public API -------------------------------------------------------

    def inject(self, packet: Packet) -> None:
        """Queue a packet for injection at its source node."""
        self.mesh.validate_node(packet.src)
        self.mesh.validate_node(packet.dst)
        packet.injected_cycle = self.cycle
        num_flits = self.config.flits_for(packet.size_bytes)
        queue = self.injection[packet.src]
        # Lanes go round in this network's own injection order, so a run
        # does not depend on how many packets the process built before.
        injection_vc = self.injected_packets % self.config.num_vcs
        for i in range(num_flits):
            queue.append(
                Flit(
                    packet=packet,
                    index=i,
                    is_head=(i == 0),
                    is_tail=(i == num_flits - 1),
                    injection_vc=injection_vc,
                )
            )
        self.injected_packets += 1
        self.total_flits += num_flits

    def idle(self) -> bool:
        """True when no flits remain anywhere in the network."""
        if self._in_flight:
            return False
        if any(q for q in self.injection.values()):
            return False
        return not any(
            port.occupied()
            for router in self.routers.values()
            for port in router.inputs.values()
        )

    def run(self, max_cycles: int = 1_000_000) -> list[Packet]:
        """Advance until drained (or ``max_cycles``); return delivered packets."""
        while not self.idle():
            if self.cycle >= max_cycles:
                raise RuntimeError(
                    f"network did not drain within {max_cycles} cycles"
                )
            self.step()
        return self.delivered

    # -- one simulated cycle ------------------------------------------------

    def step(self) -> None:
        """Advance the network by one cycle."""
        self.cycle += 1
        self._arrive_in_flight()
        self._switch_all_routers()
        self._inject_queued()

    def _arrive_in_flight(self) -> None:
        remaining = []
        for arrival, coord, direction, vc, flit in self._in_flight:
            if arrival <= self.cycle:
                self.routers[coord].inputs[direction].vcs[vc].deliver(flit)
            else:
                remaining.append((arrival, coord, direction, vc, flit))
        self._in_flight = remaining

    def _switch_all_routers(self) -> None:
        for coord in sorted(self.routers):
            self._switch_router(self.routers[coord])

    def _switch_router(self, router: _Router) -> None:
        for out_dir in _DIRECTIONS:
            winner = self._select_candidate(router, out_dir)
            if winner is None:
                continue
            in_dir, in_vc_index = winner
            channel = router.inputs[in_dir].vcs[in_vc_index]
            flit = channel.buffer[0]
            if out_dir == "L":
                self._eject(channel, flit)
            else:
                self._forward(router, channel, flit, out_dir)

    def _select_candidate(
        self, router: _Router, out_dir: str
    ) -> tuple[str, int] | None:
        """Round-robin over (input port, VC) pairs wanting ``out_dir``.

        A candidate head flit must be able to allocate a downstream VC;
        a body/tail flit must follow its packet's allocated route with
        downstream credit available.
        """
        num_inputs = len(_DIRECTIONS)
        num_vcs = self.config.num_vcs
        start_input = router.rr_input[out_dir]
        start_vc = router.rr_vc[out_dir]
        for offset in range(num_inputs * num_vcs):
            flat = (start_input * num_vcs + start_vc + offset) % (
                num_inputs * num_vcs
            )
            in_dir = _DIRECTIONS[flat // num_vcs]
            vc_index = flat % num_vcs
            channel = router.inputs[in_dir].vcs[vc_index]
            if not channel.buffer:
                continue
            flit = channel.buffer[0]
            if flit.is_head and channel.out_dir is None:
                if router.output_for(flit.packet.dst) != out_dir:
                    continue
                if not self._allocate(router, channel, flit, out_dir):
                    continue
            elif channel.out_dir != out_dir:
                continue
            if out_dir != "L" and not self._has_credit(router, channel,
                                                       out_dir):
                continue
            router.rr_input[out_dir] = (flat // num_vcs + 1) % num_inputs
            router.rr_vc[out_dir] = (flat % num_vcs + 1) % num_vcs
            return in_dir, vc_index
        return None

    def _allocate(
        self,
        router: _Router,
        channel: _VirtualChannel,
        flit: Flit,
        out_dir: str,
    ) -> bool:
        """Try to claim a free downstream VC for a new packet."""
        if out_dir == "L":
            channel.out_dir = "L"
            channel.out_vc = 0
            return True
        owners = router.vc_owner[out_dir]
        for vc_index, owner in enumerate(owners):
            if owner is None:
                owners[vc_index] = flit.packet.pid
                channel.out_dir = out_dir
                channel.out_vc = vc_index
                return True
        return False

    def _has_credit(
        self, router: _Router, channel: _VirtualChannel, out_dir: str
    ) -> bool:
        next_coord = _neighbor(router.coord, out_dir)
        next_vc = self.routers[next_coord].inputs[_OPPOSITE[out_dir]].vcs[
            channel.out_vc
        ]
        return next_vc.free_slots > 0

    def _eject(self, channel: _VirtualChannel, flit: Flit) -> None:
        channel.buffer.popleft()
        if flit.is_tail:
            channel.clear_route()
            flit.packet.delivered_cycle = self.cycle
            self.delivered.append(flit.packet)

    def _forward(
        self,
        router: _Router,
        channel: _VirtualChannel,
        flit: Flit,
        out_dir: str,
    ) -> None:
        next_coord = _neighbor(router.coord, out_dir)
        next_port_dir = _OPPOSITE[out_dir]
        out_vc = channel.out_vc
        next_vc = self.routers[next_coord].inputs[next_port_dir].vcs[out_vc]
        channel.buffer.popleft()
        next_vc.reserve()
        arrival = self.cycle + self.config.hop_cycles
        self._in_flight.append(
            (arrival, next_coord, next_port_dir, out_vc, flit)
        )
        link = (router.coord, next_coord)
        self.link_flits[link] = self.link_flits.get(link, 0) + 1
        if flit.is_tail:
            router.vc_owner[out_dir][out_vc] = None
            channel.clear_route()

    def _inject_queued(self) -> None:
        # Source injection is FIFO: one flit per node per cycle, into the
        # packet's injection VC.  Queue order keeps each packet's flits
        # contiguous within its VC automatically.
        for coord, queue in self.injection.items():
            if not queue:
                continue
            port = self.routers[coord].inputs["L"]
            vc = port.vcs[queue[0].injection_vc]
            if vc.free_slots > 0:
                vc.reserve()
                vc.deliver(queue.popleft())