"""Root of the repo-wide failure taxonomy.

Every structured failure the harness can surface — a simulator watchdog
trip, a deadlocked run, a sweep point that timed out, a broken serving
simulation — descends from :class:`ReproError` and carries two
class-level attributes:

* ``status`` — a short machine-readable tag (``"timeout"``,
  ``"diverged"``, ``"crash"`` …) that survives process boundaries as
  plain data;
* ``retryable`` — whether a retry policy may re-attempt the operation.
  Deterministic failures (a bit-deterministic simulation that diverged)
  are never retryable; transient ones (a crashed worker) are.

This module is deliberately dependency-free: :mod:`repro.sim.kernel`
needs the root class before any higher layer exists, and
:mod:`repro.exp.errors` re-exports it as the public home of the full
hierarchy (sweep-level point errors, the serving error).
Branch on :func:`repro.exp.errors.classify` instead of parsing messages.
"""

from __future__ import annotations


class ReproError(RuntimeError):
    """Base class of every structured failure in the harness.

    Subclasses override ``status`` (the machine-readable tag mirrored in
    per-point / per-request result records) and ``retryable`` (whether a
    retry policy may re-attempt the failed operation).
    """

    #: Machine-readable status tag for result records and exit paths.
    status = "error"
    #: Whether a retry policy may re-attempt this failure class.
    retryable = False
