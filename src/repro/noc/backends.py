"""The table of interchangeable :class:`NocModel` backends.

The accelerator selects its interconnect model by name —
``AcceleratorConfig(noc_backend="flit")`` or ``python -m repro sweep
--noc-backend analytical`` — and this module maps the name to a
factory.  A configuration that names no backend uses
:data:`DEFAULT_BACKEND`.  Three fidelities ship built in:

========== ================================== ===========================
name       model                              when to use it
========== ================================== ===========================
packet     per-packet FIFO link reservations  the default: contention at
           (:class:`PacketNetwork`)           Pubmed scale
flit       cycle-stepped wormhole replay      validating the packet model
           (:class:`FlitNetworkAdapter`)      in situ on small configs
analytical zero-contention closed form        sweep-scale speed when NoC
           (:class:`AnalyticalNetwork`)       contention is not the topic
========== ================================== ===========================

Adding a backend takes two steps: implement the
:class:`~repro.noc.model.NocModel` protocol (inherit
:class:`~repro.noc.links.LinkLedgerBase` for the bookkeeping half and
the memoized per-message prologue) and add a :data:`BACKENDS` entry.
The backend name is part of the result-cache fingerprint (it is a field
of ``AcceleratorConfig``), so two backends never share cached reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import lookup
from repro.noc.analytical import AnalyticalNetwork
from repro.noc.config import NocConfig
from repro.noc.fastmodel import PacketNetwork
from repro.noc.flitadapter import FlitNetworkAdapter
from repro.noc.model import NocModel
from repro.noc.topology import Mesh

#: The backend of a configuration that names none.
DEFAULT_BACKEND = "packet"


@dataclass(frozen=True)
class BackendInfo:
    """One backend: the factory plus a one-line fidelity note."""

    name: str
    factory: Callable[[Mesh, NocConfig], NocModel]
    fidelity: str


#: Every backend by name, in listing order.
BACKENDS: dict[str, BackendInfo] = {
    info.name: info for info in (
        BackendInfo(
            "packet", PacketNetwork,
            "packet-granularity FIFO link contention (default; "
            "Pubmed-scale)",
        ),
        BackendInfo(
            "flit", FlitNetworkAdapter,
            "cycle-stepped wormhole replay per message batch (small "
            "configs)",
        ),
        BackendInfo(
            "analytical", AnalyticalNetwork,
            "zero-contention closed form: hops*hop_cycles + flits-1 "
            "(sweep-scale)",
        ),
    )
}


def backend_names() -> tuple[str, ...]:
    """Backend names, listing order."""
    return tuple(BACKENDS)


def available_backends() -> tuple[BackendInfo, ...]:
    """Backend entries, listing order."""
    return tuple(BACKENDS.values())


def validate_backend(name: str) -> str:
    """Return ``name`` if it names a backend, else raise
    :class:`~repro.errors.UnknownNameError`."""
    lookup(BACKENDS, "NoC backend", name)
    return name


def create_backend(name: str, mesh: Mesh, config: NocConfig) -> NocModel:
    """Instantiate the backend named ``name``."""
    return lookup(BACKENDS, "NoC backend", name).factory(mesh, config)
