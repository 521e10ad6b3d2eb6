"""The table of interchangeable :class:`ExecutionBackend` systems.

The harness selects the execution system by name — ``python -m repro
sweep --system cpu`` or ``run_system("eyeriss", ...)`` — and
:data:`SYSTEMS` maps the name to a factory, exactly like
:data:`repro.noc.backends.BACKENDS` does for interconnect models.  The CLI runs
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

from repro.errors import lookup
from repro.systems.base import ExecutionBackend

#: The CLI's system when none is named: the paper's proposed accelerator.
DEFAULT_SYSTEM = "accel"


@dataclass(frozen=True)
class SystemOptions:
    """Construction-time knobs a backend factory may honour.

    Each backend reads the options that apply to it and ignores the
    rest: ``config_name``/``noc_backend`` select the accelerator's
    Table VI row and interconnect model, ``clock_ghz`` sets the
    accelerator tile clock (and the Eyeriss array clock).  ``multichip``
    carries the partition and inter-chip-link configuration of the
    ``multichip`` system
    (:class:`repro.systems.multichip.MultiChipConfig`).  The CPU/GPU
    baselines take no options.
    """

    config_name: str | None = None
    clock_ghz: float | None = None
    noc_backend: str | None = None
    multichip: "Any | None" = None


@dataclass(frozen=True)
class SystemInfo:
    """One system: the factory plus a one-line summary."""

    name: str
    factory: Callable[[SystemOptions], ExecutionBackend]
    summary: str


def system_names() -> tuple[str, ...]:
    """System names, listing order."""
    return tuple(SYSTEMS)


def available_systems() -> tuple[SystemInfo, ...]:
    """System entries, listing order."""
    return tuple(SYSTEMS.values())


def validate_system(name: str) -> str:
    """Return ``name`` if it names a system, else raise
    :class:`~repro.errors.UnknownNameError`."""
    lookup(SYSTEMS, "execution system", name)
    return name


def create_system(
    name: str,
    options: SystemOptions | None = None,
    **overrides,
) -> ExecutionBackend:
    """Instantiate the system named ``name``.

    Keyword overrides build a :class:`SystemOptions` when one is not
    passed explicitly (``create_system("accel", clock_ghz=1.2)``).
    """
    if options is None:
        options = SystemOptions(**overrides)
    elif overrides:
        raise TypeError("pass either options= or keyword overrides, not both")
    return lookup(SYSTEMS, "execution system", name).factory(options)


def _builtin_systems() -> dict[str, SystemInfo]:
    # The system modules import SystemOptions from this module.
    from repro.systems.accel import AcceleratorSystem
    from repro.systems.baseline import CPU_SYSTEM_NAME, GPU_SYSTEM_NAME, BaselineSystem
    from repro.systems.eyeriss import EyerissSystem
    from repro.systems.multichip import MultiChipSystem

    return {info.name: info for info in (
        SystemInfo(
            "accel", AcceleratorSystem,
            "event-driven GNN accelerator simulation (Table VI rows)",
        ),
        SystemInfo(
            "cpu", lambda _options: BaselineSystem(CPU_SYSTEM_NAME),
            "Xeon E5-2680v4 baseline: Table VII measured + roofline model",
        ),
        SystemInfo(
            "gpu", lambda _options: BaselineSystem(GPU_SYSTEM_NAME),
            "Titan XP baseline: Table VII measured + roofline model",
        ),
        SystemInfo(
            "eyeriss", EyerissSystem,
            "dense spatial-array dataflow mapper (Section II study; any "
            "dense-expressible IR)",
        ),
        SystemInfo(
            "multichip", MultiChipSystem,
            "N partitioned accelerator chips with an inter-chip link model",
        ),
    )}


#: Every system by name, in listing order.
SYSTEMS: dict[str, SystemInfo] = _builtin_systems()
