"""DNN Accelerator (DNA) unit model.

"The DNN Accelerator is modeled using a latency-throughput model similar
to the memory controllers.  NN-Dataflow is used to map DNN models onto an
Eyeriss-like single-tile spatial array accelerator with 182 PEs"
(Section V).  Jobs arrive from the DNQ with a MAC count and a mapping
efficiency precomputed by :mod:`repro.dataflow` for the layer they belong
to; the array serializes them FIFO.  :meth:`DnaUnit.service_ns` is the
one cost formula and :meth:`DnaUnit.execute_ns` the one occupy call.
"""

from __future__ import annotations

import numpy as np

from repro.dataflow.spatial import SpatialArrayConfig
from repro.sim.clock import Clock
from repro.sim.kernel import Simulator
from repro.sim.module import Module
from repro.sim.stats import BusyTracker


class DnaUnit(Module):
    """Latency-throughput model of the in-tile spatial array."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        array: SpatialArrayConfig,
        clock: Clock,
    ) -> None:
        super().__init__(sim, name, clock)
        self.array = array
        self.tracker = BusyTracker()
        # Integer tallies behind the ``jobs`` and ``macs`` counters.
        self._jobs = 0
        self._macs = 0

    def service_ns(
        self, macs: int | np.ndarray, efficiency: float
    ) -> float | np.ndarray:
        """Time to execute ``macs`` at the layer's mapping efficiency.

        ``macs`` is a count or a numpy array of counts (the engine's
        per-layer table); the array form is the scalar formula applied
        element by element.
        """
        if np.any(macs < 0):
            raise ValueError("MAC count cannot be negative")
        if not 0 < efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
        throughput = self.array.num_pes * efficiency  # MACs per cycle
        cycles = macs / throughput
        return self.clock.cycles_to_ns(cycles)

    def execute_ns(
        self, duration_ns: float, macs: int, ready_ns: float
    ) -> tuple[float, float]:
        """Run one job after ``ready_ns``; returns (start, finish) in ns.

        ``duration_ns`` is ``service_ns(macs, efficiency)`` for the job's
        layer, which the caller computes (the runtime engine tabulates it
        once per layer).
        """
        start, finish = self.tracker.occupy(ready_ns, duration_ns)
        self._jobs += 1
        self._macs += macs
        return start, finish

    def _derived_counts(self) -> dict[str, float]:
        if not self._jobs:
            return {}
        return {"jobs": float(self._jobs), "macs": float(self._macs)}

    def utilization(self, elapsed_ns: float) -> float:
        """Array-busy fraction over ``elapsed_ns`` (the Figure 10 metric)."""
        return self.tracker.utilization(elapsed_ns)

    def effective_macs_per_cycle(self, elapsed_ns: float) -> float:
        """Achieved MAC throughput over a run."""
        if elapsed_ns <= 0:
            return 0.0
        cycles = self.clock.ns_to_cycles(elapsed_ns)
        return self.stats.get("macs") / cycles
