"""Named registry of interchangeable :class:`ExecutionBackend` systems.

The harness selects the execution system by name — ``python -m repro
sweep --system cpu`` or ``run_system("eyeriss", ...)`` — and this
module maps the name to a factory, exactly like
:mod:`repro.noc.backends` does for interconnect models.  The CLI runs
:data:`DEFAULT_SYSTEM` when no ``--system`` is given.  Five systems
ship built in:

========= ===================================== ========================
name      model                                 paper artifact
========= ===================================== ========================
accel     event-driven GNN accelerator          Figures 8 & 10,
          simulation (:mod:`repro.runtime`)     Table VI rows
cpu       Xeon E5-2680v4 baseline               Table VII "CPU" column
          (:mod:`repro.baselines`)
gpu       Titan XP baseline                     Table VII "GPU" column
          (:mod:`repro.baselines`)
eyeriss   dense spatial-array dataflow mapper   Table II / Figure 2
          (:mod:`repro.dataflow`)               (Section II study)
multichip N partitioned accelerator chips       scaling study
          joined by an inter-chip link model    (Section V outlook)
          (:mod:`repro.partition`)
========= ===================================== ========================

Every plan fingerprint — and therefore every result-cache key — names
its system, so two systems never share cached results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.systems.base import ExecutionBackend

#: The CLI's system when none is named: the paper's proposed accelerator.
DEFAULT_SYSTEM = "accel"


class UnknownSystemError(ValueError):
    """Raised for a system name that is not registered."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(
            f"unknown execution system {name!r}; "
            f"valid: {', '.join(system_names())}"
        )


@dataclass(frozen=True)
class SystemOptions:
    """Construction-time knobs a backend factory may honour.

    Each backend reads the options that apply to it and ignores the
    rest: ``config_name``/``noc_backend`` select the accelerator's
    Table VI row and interconnect model, ``clock_ghz`` sets the
    accelerator tile clock (and the Eyeriss array clock), ``measured``
    switches the CPU/GPU baselines between the paper's measured
    Table VII latencies (the default, what Figure 8 normalizes against)
    and the analytical machine-model prediction.  ``multichip`` carries
    the partition and inter-chip-link configuration of the ``multichip``
    system (:class:`repro.systems.multichip.MultiChipConfig`); every
    other backend ignores it.
    """

    config_name: str | None = None
    clock_ghz: float | None = None
    noc_backend: str | None = None
    measured: bool = True
    multichip: "Any | None" = None


@dataclass(frozen=True)
class SystemInfo:
    """One registry entry: the factory plus a one-line summary."""

    name: str
    factory: Callable[[SystemOptions], ExecutionBackend]
    summary: str


_REGISTRY: dict[str, SystemInfo] = {}


def register_system(
    name: str,
    factory: Callable[[SystemOptions], ExecutionBackend],
    summary: str,
) -> None:
    """Register ``factory`` under ``name`` (re-registration is an error)."""
    if name in _REGISTRY:
        raise ValueError(f"execution system {name!r} is already registered")
    _REGISTRY[name] = SystemInfo(name=name, factory=factory, summary=summary)


def system_names() -> tuple[str, ...]:
    """Registered system names, registration order."""
    return tuple(_REGISTRY)


def available_systems() -> tuple[SystemInfo, ...]:
    """Registry entries, registration order."""
    return tuple(_REGISTRY.values())


def validate_system(name: str) -> str:
    """Return ``name`` if registered, else raise :class:`UnknownSystemError`."""
    if name not in _REGISTRY:
        raise UnknownSystemError(name)
    return name


def create_system(
    name: str,
    options: SystemOptions | None = None,
    **overrides,
) -> ExecutionBackend:
    """Instantiate the system registered under ``name``.

    Keyword overrides build a :class:`SystemOptions` when one is not
    passed explicitly (``create_system("accel", clock_ghz=1.2)``).
    """
    if options is None:
        options = SystemOptions(**overrides)
    elif overrides:
        raise TypeError("pass either options= or keyword overrides, not both")
    return _REGISTRY[validate_system(name)].factory(options)


def _register_builtins() -> None:
    from repro.systems.accel import AcceleratorSystem
    from repro.systems.baseline import CPU_SYSTEM_NAME, GPU_SYSTEM_NAME, BaselineSystem
    from repro.systems.eyeriss import EyerissSystem
    from repro.systems.multichip import MultiChipSystem

    register_system(
        "accel", AcceleratorSystem,
        "event-driven GNN accelerator simulation (Table VI rows)",
    )
    register_system(
        "cpu", lambda options: BaselineSystem(CPU_SYSTEM_NAME, options),
        "Xeon E5-2680v4 baseline: Table VII measured + roofline model",
    )
    register_system(
        "gpu", lambda options: BaselineSystem(GPU_SYSTEM_NAME, options),
        "Titan XP baseline: Table VII measured + roofline model",
    )
    register_system(
        "eyeriss", EyerissSystem,
        "dense spatial-array dataflow mapper (Section II study; any "
        "dense-expressible IR)",
    )
    register_system(
        "multichip", MultiChipSystem,
        "N partitioned accelerator chips with an inter-chip link model",
    )


_register_builtins()
