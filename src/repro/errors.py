"""Root of the repo-wide failure taxonomy, and the one name resolver.

Every structured failure the harness can surface — a simulator watchdog
trip, a deadlocked run, a broken serving simulation — descends from
:class:`ReproError` and carries a class-level ``status``: a short
machine-readable tag (``"diverged"``, ``"error"`` …) that survives
process boundaries as plain data.

Every name a user can type — a benchmark, a configuration, an execution
system, a NoC backend, a partition method, a parameter space, a search
driver — resolves through :func:`lookup` in a constant table, and an
unknown one raises :class:`UnknownNameError` listing the valid names.

This module is deliberately dependency-free: :mod:`repro.sim.kernel`
needs the root class before any higher layer exists, and
:mod:`repro.exp.errors` re-exports it as the public home of the full
hierarchy (the sweep and serving errors).
Branch on :func:`repro.exp.errors.classify` instead of parsing messages.
"""

from __future__ import annotations

from typing import Mapping, TypeVar

T = TypeVar("T")


class ReproError(RuntimeError):
    """Base class of every structured failure in the harness.

    Subclasses override ``status``, the machine-readable tag mirrored
    in per-point / per-request result records.
    """

    #: Machine-readable status tag for result records and exit paths.
    status = "error"


class UnknownNameError(KeyError, ValueError):
    """A name that is not in its table; the message lists the valid ones.

    Both bases are deliberate: callers that catch ``KeyError`` (a
    lookup) and callers that catch ``ValueError`` (a rejected argument)
    both handle it.
    """

    def __init__(self, kind: str, name: str, valid: tuple[str, ...]) -> None:
        self.kind = kind
        self.name = name
        super().__init__(
            f"unknown {kind} {name!r}; valid: {', '.join(valid)}"
        )

    def __str__(self) -> str:
        # KeyError would quote the message.
        return self.args[0]


def lookup(table: Mapping[str, T], kind: str, name: str) -> T:
    """``table[name]``, or :class:`UnknownNameError` naming ``kind`` and
    every key of ``table`` in its order."""
    try:
        return table[name]
    except KeyError:
        raise UnknownNameError(kind, name, tuple(table)) from None
