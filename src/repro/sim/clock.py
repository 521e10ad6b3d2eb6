"""Clock-domain helper for converting between cycles and nanoseconds."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Clock:
    """A clock domain with a frequency in GHz.

    The paper's accelerator sweeps the tile clock (0.6 - 2.4 GHz) while the
    NoC and the memory controllers keep fixed timing, so each module carries
    its own :class:`Clock`.
    """

    freq_ghz: float

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0:
            raise ValueError(f"clock frequency must be positive, got {self.freq_ghz}")

    def cycles_to_ns(self, cycles: float) -> float:
        """Convert a cycle count into nanoseconds."""
        return cycles / self.freq_ghz

    def ns_to_cycles(self, ns: float) -> float:
        """Convert nanoseconds into (possibly fractional) cycles."""
        return ns * self.freq_ghz
