"""Network packet abstraction shared by both NoC models."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

_ids = itertools.count()


@dataclass
class Packet:
    """A message between two mesh nodes.

    ``src``/``dst`` are mesh coordinates ``(x, y)``.
    """

    src: tuple[int, int]
    dst: tuple[int, int]
    size_bytes: int
    pid: int = field(default_factory=lambda: next(_ids))
    injected_cycle: int | float | None = None
    delivered_cycle: int | float | None = None

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("packet size cannot be negative")

    @property
    def latency(self) -> int | float | None:
        """Injection-to-delivery latency, if delivered."""
        if self.injected_cycle is None or self.delivered_cycle is None:
            return None
        return self.delivered_cycle - self.injected_cycle
