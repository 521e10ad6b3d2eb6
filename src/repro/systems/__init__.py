"""Execution systems: one protocol over every machine the paper compares.

The paper's headline claims are cross-system — the simulated GNN
accelerator against CPU/GPU baselines at matched bandwidth (Table VII,
Figure 8) and against a dense spatial dataflow accelerator (Section II).
This package puts all of them behind one :class:`ExecutionBackend`
protocol with a name-keyed registry, a shared content-addressed
:class:`Workload`, and a uniform cached entry point
(:func:`run_system`), so the sweep runner, result cache, observability
bundle, and CLI treat every system the same way::

    from repro.systems import run_system

    accel = run_system("accel", "gcn-cora", config_name="CPU iso-BW")
    cpu = run_system("cpu", "gcn-cora")
    print(cpu.latency_ms / accel.latency_ms)   # the iso-BW speedup
"""

from repro.systems.base import (
    ExecutionBackend,
    ExecutionPlan,
    SystemReport,
    UnsupportedWorkloadError,
    Workload,
    resolve_workload,
)
from repro.systems.registry import (
    DEFAULT_SYSTEM,
    SystemInfo,
    SystemOptions,
    UnknownSystemError,
    available_systems,
    create_system,
    register_system,
    system_names,
    validate_system,
)
# Imported after the registry so the builtin-registration bootstrap
# (registry bottom) is what first executes the backend modules.
from repro.systems.multichip import MultiChipConfig, MultiChipSystem
from repro.systems.serialize import (
    system_report_from_dict,
    system_report_to_dict,
)
from repro.systems.service import run_system, system_plan

__all__ = [
    "ExecutionBackend",
    "ExecutionPlan",
    "SystemReport",
    "UnsupportedWorkloadError",
    "Workload",
    "resolve_workload",
    "MultiChipConfig",
    "MultiChipSystem",
    "DEFAULT_SYSTEM",
    "SystemInfo",
    "SystemOptions",
    "UnknownSystemError",
    "available_systems",
    "create_system",
    "register_system",
    "system_names",
    "validate_system",
    "system_report_from_dict",
    "system_report_to_dict",
    "run_system",
    "system_plan",
]
