"""Simulator self-profiling: where does the *Python kernel* spend time?

The hardware metrics answer "where do simulated cycles go"; this module
answers where the host-side event loop spends wall-clock time.  A
:class:`KernelProfiler` handed to :meth:`repro.sim.kernel.Simulator.run`
counts events and loop wall time exactly, and samples the running loop
from a background thread: every :data:`SAMPLE_INTERVAL_S` it reads the
simulating thread's stack (``sys._current_frames()``) and attributes the
sample to the handler running below the loop frame — labelled by
:func:`~repro.sim.kernel.describe_callback` from the loop's ``callback``
local — or, with no handler frame below the loop, to the kernel itself
(heap maintenance, budget checks).  Each sample also records the queue
depth.

The kernel calls the profiler once before its dispatch loop and once
after it, never per event, so a profiled run executes the production
loop unchanged.  Everything here observes *host* time only: attaching a
profiler cannot change a single simulated timestamp.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from types import FrameType
from typing import Any

from repro.sim.kernel import Event, Simulator, describe_callback

#: Seconds between samples.  A simulating thread that never releases the
#: GIL hands it over only every ``sys.getswitchinterval()`` (5 ms by
#: default), which caps the effective rate below this.
SAMPLE_INTERVAL_S = 0.001

#: A frame of this file below the loop frame is the kernel's own work
#: (``Event.__lt__`` during heap maintenance, a budget trip), not a
#: handler.
_KERNEL_FILE = Event.__lt__.__code__.co_filename


@dataclass(frozen=True)
class KernelProfile:
    """Immutable summary of one (or several accumulated) kernel runs.

    ``events`` and ``run_wall_s`` are exact.  Everything else comes from
    ``samples`` stack samples of the running loop: each is attributed to
    the handler it caught (``owner_samples``) or to the kernel itself
    (``kernel_samples``), and records the queue depth at that instant.
    """

    events: int
    run_wall_s: float
    samples: int
    kernel_samples: int
    owner_samples: dict[str, int] = field(default_factory=dict)
    queue_depth_hist: dict[int, int] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        """Whole-loop event throughput (0.0 before any run finishes)."""
        if self.run_wall_s <= 0:
            return 0.0
        return self.events / self.run_wall_s

    @property
    def handler_share(self) -> float:
        """Sampled fraction of the loop's wall time spent in handlers."""
        if not self.samples:
            return 0.0
        return (self.samples - self.kernel_samples) / self.samples

    @property
    def handler_wall_s(self) -> float:
        """Loop wall time spent in handlers, estimated from the samples."""
        return self.run_wall_s * self.handler_share

    def hottest_handlers(self, count: int = 5) -> list[tuple[str, float, int]]:
        """Top owners by sample count:
        ``(owner, estimated_wall_s, samples)``."""
        if not self.samples:
            return []
        wall_per_sample = self.run_wall_s / self.samples
        ranked = sorted(self.owner_samples.items(), key=lambda item: item[1],
                        reverse=True)
        return [(owner, hits * wall_per_sample, hits)
                for owner, hits in ranked[:count]]

    def queue_depth_buckets(self) -> list[tuple[str, int]]:
        """Histogram rows as ``(depth-range label, samples)``, ascending."""
        rows = []
        for bucket in sorted(self.queue_depth_hist):
            if bucket == 0:
                label = "0"
            else:
                low, high = 1 << (bucket - 1), (1 << bucket) - 1
                label = str(low) if low == high else f"{low}-{high}"
            rows.append((label, self.queue_depth_hist[bucket]))
        return rows

    def as_dict(self) -> dict[str, Any]:
        """Plain-data view for snapshot merging / JSON export."""
        return {
            "events": self.events,
            "run_wall_s": self.run_wall_s,
            "events_per_sec": self.events_per_sec,
            "samples": self.samples,
            "kernel_samples": self.kernel_samples,
            "handler_share": self.handler_share,
            "owner_samples": dict(self.owner_samples),
            "queue_depth_hist": {
                str(bucket): count
                for bucket, count in sorted(self.queue_depth_hist.items())
            },
        }


class KernelProfiler:
    """Accumulating sampler for :meth:`Simulator.run` calls.

    One instance may span several runs (the engine runs the kernel once
    per layer); counters accumulate across them.  ``start``/``stop`` are
    the kernel's hooks (:class:`~repro.sim.kernel.SupportsProfiler`).
    """

    def __init__(self) -> None:
        self._events = 0
        self._run_wall_s = 0.0
        self._samples = 0
        self._kernel_samples = 0
        self._owner_samples: dict[str, int] = {}
        self._queue_depth_hist: dict[int, int] = {}
        # The run being sampled (set between start and stop).
        self._sim: Simulator | None = None
        self._loop: FrameType | None = None
        self._thread_id = 0
        self._events_before = 0
        self._wall_start = 0.0
        self._stopped = threading.Event()
        self._sampler: threading.Thread | None = None

    # -- kernel hooks (SupportsProfiler) ------------------------------------

    def start(self, sim: Simulator, loop: FrameType) -> None:
        """Start sampling ``loop``, the frame running ``sim``'s loop."""
        self._sim = sim
        self._loop = loop
        self._thread_id = threading.get_ident()
        self._events_before = sim.events_fired
        self._stopped.clear()
        self._sampler = threading.Thread(
            target=self._sample_until_stopped, name="kernel-profiler",
            daemon=True,
        )
        self._wall_start = perf_counter()
        self._sampler.start()

    def stop(self) -> None:
        """Stop sampling and account the finished run."""
        self._stopped.set()
        self._sampler.join()
        self._run_wall_s += perf_counter() - self._wall_start
        self._events += self._sim.events_fired - self._events_before
        self._sim = self._loop = self._sampler = None

    def _sample_until_stopped(self) -> None:
        while not self._stopped.wait(SAMPLE_INTERVAL_S):
            self._sample()

    def _sample(self) -> None:
        frame = sys._current_frames().get(self._thread_id)
        below = None
        while frame is not None and frame is not self._loop:
            below = frame
            frame = frame.f_back
        if frame is None:
            return  # the simulating thread is not inside the loop
        where = None if below is None else below.f_code.co_filename
        if where == __file__:
            return  # inside start() or stop(), not the loop's work
        callback = None
        if where is not None and where != _KERNEL_FILE:
            # Unbound before the first dispatch, e.g. under a Python tracer.
            callback = frame.f_locals.get("callback")
        if callback is None:
            self._kernel_samples += 1
        else:
            owner = describe_callback(callback)
            self._owner_samples[owner] = self._owner_samples.get(owner, 0) + 1
        self._samples += 1
        bucket = self._sim.pending.bit_length()
        self._queue_depth_hist[bucket] = (
            self._queue_depth_hist.get(bucket, 0) + 1
        )

    # -- reporting ----------------------------------------------------------

    @property
    def events(self) -> int:
        return self._events

    def profile(self) -> KernelProfile:
        """Snapshot of everything recorded so far."""
        return KernelProfile(
            events=self._events,
            run_wall_s=self._run_wall_s,
            samples=self._samples,
            kernel_samples=self._kernel_samples,
            owner_samples=dict(self._owner_samples),
            queue_depth_hist=dict(self._queue_depth_hist),
        )
