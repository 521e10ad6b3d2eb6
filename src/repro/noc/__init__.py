"""Booksim-like network-on-chip models.

The paper's simulator is built on Booksim, a cycle-accurate NoC simulator,
with the Table IV parameters (1-cycle link and routing delay, 4-flit input
buffers, minimal routing).  This package provides three fidelity levels
that share topology and routing code, all behind one
:class:`~repro.noc.model.NocModel` protocol and selectable by name
through :mod:`repro.noc.backends`:

* :class:`~repro.noc.flitnet.FlitNetwork` — a cycle-stepped wormhole
  router model with credit-based flow control, used for validation and
  NoC-focused studies (and inside whole-benchmark runs via the
  ``"flit"`` backend's :class:`~repro.noc.flitadapter.FlitNetworkAdapter`).
* :class:`~repro.noc.fastmodel.PacketNetwork` — a packet-granularity
  link-contention model used inside whole-benchmark accelerator
  simulations so Pubmed-scale runs stay tractable (DESIGN.md section 2);
  the ``"packet"`` backend and the default.
* :class:`~repro.noc.analytical.AnalyticalNetwork` — the zero-contention
  closed form (``hops * hop_cycles + flits - 1``); the ``"analytical"``
  backend, for sweep-scale speed.
"""

from repro.noc.config import NocConfig, NOC_CONFIG
from repro.noc.packet import Packet
from repro.noc.topology import Mesh, Torus, xy_direction, xy_route
from repro.noc.model import NocModel
from repro.noc.links import LinkLedgerBase
from repro.noc.flitnet import FlitNetwork
from repro.noc.fastmodel import PacketNetwork
from repro.noc.analytical import AnalyticalNetwork
from repro.noc.flitadapter import FlitNetworkAdapter
from repro.noc.backends import (
    DEFAULT_BACKEND,
    BackendInfo,
    UnknownBackendError,
    available_backends,
    backend_names,
    create_backend,
    register_backend,
    validate_backend,
)
from repro.noc.traffic import (
    hotspot,
    load_sweep,
    neighbor,
    run_load_point,
    transpose,
    uniform_random,
)

__all__ = [
    "NocConfig",
    "NOC_CONFIG",
    "Packet",
    "Mesh",
    "Torus",
    "xy_direction",
    "xy_route",
    "NocModel",
    "LinkLedgerBase",
    "FlitNetwork",
    "PacketNetwork",
    "AnalyticalNetwork",
    "FlitNetworkAdapter",
    "DEFAULT_BACKEND",
    "BackendInfo",
    "UnknownBackendError",
    "available_backends",
    "backend_names",
    "create_backend",
    "register_backend",
    "validate_backend",
    "uniform_random",
    "hotspot",
    "transpose",
    "neighbor",
    "run_load_point",
    "load_sweep",
]
