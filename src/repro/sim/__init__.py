"""Event-driven simulation kernel.

This package provides the discrete-event core that the NoC simulator
(:mod:`repro.noc`) and the GNN accelerator model (:mod:`repro.accel`) are
built on.  Time is kept in nanoseconds (float) so that components running
at different clock frequencies (the paper sweeps the tile clock while the
NoC and memory stay fixed) can coexist in one event queue.
"""

from repro.sim.kernel import Simulator, SimulationError
from repro.sim.clock import Clock
from repro.sim.module import Module
from repro.sim.stats import BusyTracker, StatSet
from repro.sim.watchdog import WatchdogConfig, WatchdogDiagnosis, WatchdogTrip

__all__ = [
    "Simulator",
    "SimulationError",
    "Clock",
    "Module",
    "BusyTracker",
    "StatSet",
    "WatchdogConfig",
    "WatchdogDiagnosis",
    "WatchdogTrip",
]
