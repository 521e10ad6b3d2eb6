"""The ``NocModel`` protocol every interchangeable NoC backend satisfies.

The execution stack — :class:`~repro.accel.system.Accelerator`, the
:class:`~repro.runtime.engine.RuntimeEngine` suspect scan, the fault
injectors (:mod:`repro.accel.faults`), the observability layer
(:mod:`repro.obs`), and the energy model — talks to the interconnect
only through this interface.  Backends at three fidelities implement it
(see :mod:`repro.noc.backends`):

========== ============================================= ==============
name       model                                         cost
========== ============================================= ==============
packet     per-packet FIFO link reservations             default
flit       cycle-stepped wormhole routers (FlitNetwork)  small configs
analytical zero-contention closed form                   sweep-scale
========== ============================================= ==============

The contract, member by member:

* :attr:`mesh` / :attr:`config` — the topology and Table IV timing the
  backend was built for.
* :attr:`stats` — additive counters; every backend maintains at least
  ``packets``, ``flits``, ``bytes`` and ``flit_hops`` (the energy model
  integrates ``flit_hops``), plus ``injected_faults`` when faulted.
* :meth:`delivery_time` — tail-arrival time of one message; the single
  hot-path method.  Zero-load latency must equal
  ``hops * hop_cycles + (flits - 1)`` NoC cycles for every backend
  (asserted differentially by ``tests/noc/test_backends.py``).
* :meth:`reserve_link` — fault-injection hook: blackout one directed
  link so traffic routed over it is delayed (or stranded).
* :meth:`stalled_links` — links reserved implausibly far into the
  future; feeds watchdog diagnoses.
* :meth:`link_utilization` / :meth:`max_link_utilization` — per-link
  busy fractions for the utilization reports.
* :meth:`attach_tracker_listener` — observability hook: the listener
  receives every directed link's :class:`~repro.sim.stats.BusyTracker`
  (existing and future), which the observer registers and feeds into
  timeline export — so ``python -m repro profile --trace`` shows NoC
  rows for *any* backend, not just the packet model.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from repro.noc.config import NocConfig
from repro.noc.topology import Coord, Mesh
from repro.sim.stats import BusyTracker, StatSet

#: Observability callback: called once per directed link with its ledger.
TrackerListener = Callable[[tuple[Coord, Coord], BusyTracker], None]


@runtime_checkable
class NocModel(Protocol):
    """Everything the execution stack asks of an interconnect model."""

    mesh: Mesh
    config: NocConfig
    stats: StatSet

    def delivery_time(
        self, src: Coord, dst: Coord, size_bytes: int, start_ns: float
    ) -> float:
        """Time at which the message's tail arrives at ``dst``."""
        ...

    def reserve_link(
        self, src: Coord, dst: Coord, start_ns: float, duration_ns: float
    ) -> None:
        """Blackout one directed link for ``duration_ns`` (fault hook)."""
        ...

    def stalled_links(
        self, now_ns: float, horizon_ns: float
    ) -> list[tuple[tuple[Coord, Coord], float]]:
        """Links reserved further than ``horizon_ns`` past ``now_ns``."""
        ...

    def link_utilization(
        self, elapsed_ns: float
    ) -> dict[tuple[Coord, Coord], float]:
        """Busy fraction of every used link over ``elapsed_ns``."""
        ...

    def max_link_utilization(self, elapsed_ns: float) -> float:
        """Utilization of the hottest link (0.0 if nothing was sent)."""
        ...

    def attach_tracker_listener(self, listener: TrackerListener) -> None:
        """Report every directed link's ledger, now and on creation."""
        ...
