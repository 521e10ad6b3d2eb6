"""Experiment harness: parallel sweeps over a persistent result store.

Every evaluation driver funnels simulations through two caching layers:

* an **in-memory memo** (per process, identity-preserving), and
* a **persistent on-disk store** (:class:`~repro.exp.cache.ResultCache`,
  shared across processes and invocations),

both keyed by the content hash of one key document
(:func:`~repro.exp.cache.key_document`): the system, the benchmark and
its layer-IR digest, plus, for the simulated accelerator, every
:class:`~repro.accel.config.AcceleratorConfig` field and, for one shard
of a partitioned input, its shard identity
(:func:`~repro.exp.cache.point_key`), or, for a prepared run of any
system, that system's parameters.  Single runs go through one
cache-through function (:func:`~repro.exp.cache.run_cached`: look up,
else execute, then store) under the caller's cache.  On top of that,
:func:`~repro.exp.runner.run_sweep` fans cache misses out to worker
processes it forks and owns, so design-space sweeps use every core and
each attempt runs under its own deadline.

See docs/architecture.md ("Experiment harness") for the cache layout and
invalidation rules.
"""

from repro.exp.cache import (
    DEFAULT_CACHE,
    ResultCache,
    default_cache,
    disabled,
    point_key,
    set_default_cache,
)
from repro.exp.errors import (
    PointCrash,
    PointError,
    PointTimeout,
    SimulationDiverged,
    SweepError,
    SweepFailed,
)
from repro.exp.runner import (
    Point,
    PointResult,
    RetryPolicy,
    SweepOutcome,
    execute_point,
    figure8_points,
    run_sweep,
    run_sweep_detailed,
    simulate_point,
)

__all__ = [
    "DEFAULT_CACHE",
    "ResultCache",
    "default_cache",
    "disabled",
    "point_key",
    "set_default_cache",
    "Point",
    "PointResult",
    "RetryPolicy",
    "SweepOutcome",
    "execute_point",
    "figure8_points",
    "run_sweep",
    "run_sweep_detailed",
    "simulate_point",
    "SweepError",
    "SweepFailed",
    "PointError",
    "PointTimeout",
    "PointCrash",
    "SimulationDiverged",
]
