"""Named registry of interchangeable :class:`NocModel` backends.

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

Adding a backend is three lines: implement the
:class:`~repro.noc.model.NocModel` protocol (inherit
:class:`~repro.noc.links.LinkLedgerBase` for the bookkeeping half and
the memoized per-message prologue) and call :func:`register_backend`.
The backend name is part of the result-cache fingerprint (it is a field
of ``AcceleratorConfig``), so two backends never share cached reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.noc.analytical import AnalyticalNetwork
from repro.noc.config import NocConfig
from repro.noc.fastmodel import PacketNetwork
from repro.noc.flitadapter import FlitNetworkAdapter
from repro.noc.model import NocModel
from repro.noc.topology import Mesh

#: The backend of a configuration that names none.
DEFAULT_BACKEND = "packet"


class UnknownBackendError(ValueError):
    """Raised for a backend name that is not registered."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(
            f"unknown NoC backend {name!r}; "
            f"valid: {', '.join(backend_names())}"
        )


@dataclass(frozen=True)
class BackendInfo:
    """One registry entry: the factory plus a one-line fidelity note."""

    name: str
    factory: Callable[[Mesh, NocConfig], NocModel]
    fidelity: str


_REGISTRY: dict[str, BackendInfo] = {}


def register_backend(
    name: str,
    factory: Callable[[Mesh, NocConfig], NocModel],
    fidelity: str,
) -> None:
    """Register ``factory`` under ``name`` (re-registration is an error)."""
    if name in _REGISTRY:
        raise ValueError(f"NoC backend {name!r} is already registered")
    _REGISTRY[name] = BackendInfo(name=name, factory=factory,
                                  fidelity=fidelity)


def backend_names() -> tuple[str, ...]:
    """Registered backend names, registration order."""
    return tuple(_REGISTRY)


def available_backends() -> tuple[BackendInfo, ...]:
    """Registry entries, registration order."""
    return tuple(_REGISTRY.values())


def validate_backend(name: str) -> str:
    """Return ``name`` if registered, else raise :class:`UnknownBackendError`."""
    if name not in _REGISTRY:
        raise UnknownBackendError(name)
    return name


def create_backend(name: str, mesh: Mesh, config: NocConfig) -> NocModel:
    """Instantiate the backend registered under ``name``."""
    return _REGISTRY[validate_backend(name)].factory(mesh, config)


register_backend(
    "packet", PacketNetwork,
    "packet-granularity FIFO link contention (default; Pubmed-scale)",
)
register_backend(
    "flit", FlitNetworkAdapter,
    "cycle-stepped wormhole replay per message batch (small configs)",
)
register_backend(
    "analytical", AnalyticalNetwork,
    "zero-contention closed form: hops*hop_cycles + flits-1 (sweep-scale)",
)
