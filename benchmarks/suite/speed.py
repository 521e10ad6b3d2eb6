"""Host-speed normalization: timings that hold still on a shared host.

On a shared 2-core sandbox the same simulation runs 30% slower for tens
of seconds at a time, and the host's speed drifts by ~15% over minutes,
so raw wall-clock throughput of identical runs spreads by ~13% between
quartiles however long each run is.  The slowdown hits every piece of
Python on the host alike.

:class:`SpeedProbe` therefore samples the host's speed *during* each
timed stage: a ``SIGALRM`` every :data:`INTERVAL_S` runs
:func:`reference_work`, a fixed stdlib-only event-loop-like kernel that
no change to ``repro`` can speed up or slow down, and records the CPU
time it took.  A stage's slowdown is the mean of its samples over
:data:`NOMINAL_S`, their nominal time on an unloaded host, and every
timing the benchmark reports is the stage's wall time, minus the time
the probe took from it, divided by that slowdown.  Measured over ten
minutes here, this took the quartile spread of 30-second windows from
14.8% to 1.1%.

Only a busy process samples: one that mostly waited since the last tick
(the sweep's parent while its pool works) would read a core shared with
the workers.  Pool workers forked while the probe is active keep
sampling and append their samples to ``<directory>/speed-<pid>.txt``; a
stage averages every sample, from any process, taken inside it.  The
probe is never active during a traced run.
"""

from __future__ import annotations

import gc
import heapq
import os
import signal
import time
from pathlib import Path
from statistics import mean

#: Seconds between speed samples.
INTERVAL_S = 0.05

#: CPU seconds of one :func:`reference_work` call on the unloaded 2-core
#: host that produced ``baseline.json``.
NOMINAL_S = 0.0011

#: A process that used less of a tick's wall time than this share of
#: CPU was waiting, not working, and takes no sample.
BUSY_SHARE = 0.5


def reference_work(steps: int = 2000) -> float:
    """Heap pushes and pops, dict updates and float arithmetic: the
    operation mix of a discrete-event loop, 1-2 ms of CPU."""
    heap: list[tuple[float, int]] = []
    counts: dict[int, int] = {}
    total = 0.0
    x = 0.5
    push, pop = heapq.heappush, heapq.heappop
    for i in range(steps):
        x = 3.9 * x * (1.0 - x)
        push(heap, (x, i))
        if len(heap) > 32:
            t, j = pop(heap)
            counts[j & 63] = counts.get(j & 63, 0) + 1
            total += t
    return total


class SpeedProbe:
    """Periodic reference samples in busy processes, while active."""

    def __init__(self, directory: Path | None = None) -> None:
        self.directory = directory
        self.samples: list[tuple[float, float]] = []  # (monotonic, CPU s)
        self.stolen_s = 0.0  # wall seconds the probe took from this process
        self.active = False
        self._sink = None
        self._last = (0.0, 0.0)
        self._ticking = False
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start()
        if self.directory is not None:
            os.register_at_fork(after_in_child=self._start_in_child)
        return self

    def __exit__(self, *exc: object) -> None:
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _start(self) -> None:
        self.active = True
        self._last = (time.monotonic(), time.thread_time())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _start_in_child(self) -> None:
        """Interval timers do not survive ``fork``; restart ours in a
        pool worker, reporting through a file."""
        if self.active:
            self.samples = []
            path = self.directory / f"speed-{os.getpid()}.txt"
            self._sink = path.open("a", encoding="utf-8")
            self._start()

    def _tick(self, signum: int, frame: object) -> None:
        # Flushing the sink runs pending signal handlers, so a tick that
        # came due during this one would re-enter the sink's write.
        if self._ticking:
            return
        self._ticking = True
        try:
            self._sample()
        finally:
            self._ticking = False

    def _sample(self) -> None:
        wall, cpu = time.monotonic(), time.thread_time()
        last_wall, last_cpu = self._last
        if cpu - last_cpu < BUSY_SHARE * (wall - last_wall):
            self._last = (wall, cpu)
            return
        collecting = gc.isenabled()
        gc.disable()  # the caller's heap must not bill the reference
        try:
            start = time.thread_time()
            reference_work()
            sample = (wall, time.thread_time() - start)
        finally:
            if collecting:
                gc.enable()
        if self._sink is not None:
            self._sink.write(f"{sample[0]!r} {sample[1]!r}\n")
            self._sink.flush()
        self.samples.append(sample)
        self._last = (time.monotonic(), time.thread_time())
        self.stolen_s += self._last[0] - wall

    def mark(self) -> tuple[float, float]:
        return time.monotonic(), self.stolen_s

    def stolen(self, since: tuple[float, float]) -> float:
        return self.stolen_s - since[1]

    def slowdown(self, since: tuple[float, float] = (0.0, 0.0)) -> float:
        """Nominal over mean speed since ``since``, from this process and
        its pool workers (1.0 when there is no sample).

        Samples are evenly spaced in time and work done in an interval
        is proportional to speed, the inverse of a sample's time, so
        speed is what is averaged."""
        window = [cpu for at, cpu in self._all_samples() if at >= since[0]]
        if not window:
            return 1.0
        return 1.0 / mean(NOMINAL_S / cpu for cpu in window)

    def _all_samples(self) -> list[tuple[float, float]]:
        samples = list(self.samples)
        if self.directory is not None:
            for path in self.directory.glob("speed-*.txt"):
                for line in path.read_text(encoding="utf-8").splitlines():
                    at, cpu = line.split()
                    samples.append((float(at), float(cpu)))
        return samples
