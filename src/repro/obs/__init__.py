"""Unified observability layer: metrics registry, timelines, profiling.

The counters the paper's analysis is built on — Figure 2's
useful-vs-wasted bandwidth, Figure 10's DNA/GPE utilization, the
Section VI attribution of PGNN's near-zero DNA utilization — live in
per-unit ``StatSet``/``BusyTracker`` instances.  This package collects
them behind one interface:

* :class:`MetricsRegistry` — every unit registered under a hierarchical
  name, one flat JSON-serializable :meth:`~MetricsRegistry.snapshot`;
* :class:`Timeline` — busy- and stall-spans per hardware track,
  exported as Chrome ``trace_event`` JSON (Perfetto-loadable);
* :class:`KernelProfiler` — wall-clock sampling of the event kernel
  itself (events/sec, handler attribution, queue-depth histogram);
* :class:`Observer` — the bundle of all of the above for one
  simulation, accepted by ``RuntimeEngine`` and ``simulate`` only; the
  result cache, the execution systems and the sweep runner never see
  one (``repro profile`` simulates its point directly).

Contract: instrumentation is zero-cost when no observer is attached and
never perturbs simulated results (``tests/obs/`` proves both).
"""

from repro.obs.observer import Observer
from repro.obs.profiler import KernelProfile, KernelProfiler
from repro.obs.registry import MetricsRegistry, Snapshot, merge_snapshots
from repro.obs.timeline import (
    REQUIRED_TRACE_KEYS,
    Timeline,
    TrackAccounting,
    write_chrome_trace,
)

__all__ = [
    "Observer",
    "MetricsRegistry",
    "Snapshot",
    "merge_snapshots",
    "Timeline",
    "TrackAccounting",
    "REQUIRED_TRACE_KEYS",
    "write_chrome_trace",
    "KernelProfiler",
    "KernelProfile",
]
