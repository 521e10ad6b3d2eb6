"""Base class for simulation modules."""

from __future__ import annotations

from repro.sim.clock import Clock
from repro.sim.kernel import Simulator
from repro.sim.stats import StatSet


class Module:
    """A named component attached to a :class:`~repro.sim.kernel.Simulator`.

    Subclasses model hardware blocks (routers, the GPE, the aggregator...).
    Each module has its own clock domain and statistics set, and schedules
    any continuation of its own through ``sim.post_at``.  A module's hot
    paths bump integer tallies and never write a counter; the counters
    they stand for come from :meth:`_derived_counts` whenever
    :attr:`stats` is read.
    """

    def __init__(self, sim: Simulator, name: str, clock: Clock) -> None:
        self.sim = sim
        self.name = name
        self.clock = clock
        self.stats = StatSet(self._derived_counts)

    def _derived_counts(self) -> dict[str, float]:
        """Counters derived from this module's tallies (none by default)."""
        return {}

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds.

        The hottest paths (a call per event or per thread grant) read
        ``sim._now`` directly and skip both property calls.
        """
        return self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
