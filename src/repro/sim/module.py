"""Base class for simulation modules."""

from __future__ import annotations

from repro.sim.clock import Clock
from repro.sim.kernel import Simulator
from repro.sim.stats import StatSet


class Module:
    """A named component attached to a :class:`~repro.sim.kernel.Simulator`.

    Subclasses model hardware blocks (routers, the GPE, the aggregator...).
    Each module has its own clock domain and statistics set, and schedules
    any continuation of its own through ``sim.post_at``.
    """

    def __init__(self, sim: Simulator, name: str, clock: Clock) -> None:
        self.sim = sim
        self.name = name
        self.clock = clock
        self.stats = StatSet()

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
