"""Persistent result cache keyed by content hashes.

A cache entry answers "what does *this exact* system, configured
*this exact* way, report on *this* benchmark?" — so the key must change
whenever any input that could change the answer changes, and must
**not** change for anything else.  The key is a SHA-256 over one
canonical JSON document, built by :func:`key_document` for every cached
result:

* ``schema`` — :data:`SCHEMA_VERSION`, bumped whenever the simulator's
  observable behaviour or the report format changes;
* ``system`` — the execution system (``"accel"`` for the simulated
  accelerator; see :mod:`repro.systems`), so no two systems can share an
  entry;
* ``benchmark`` — the benchmark key (``"gcn-cora"``);
* ``ir`` — the benchmark's layer-IR content digest
  (:func:`repro.models.registry.benchmark_ir_digest`), so a re-sized
  model, a re-generated dataset or an IR-schema revision invalidates
  every stale entry at once;

plus what the run itself adds.  An accelerator point (:func:`point_key`)
adds ``config`` — every field of the resolved
:class:`~repro.accel.config.AcceleratorConfig`, recursively
(:func:`config_fingerprint`), including the swept clock — and, for one
shard of a partitioned input, ``shard`` (the
:class:`~repro.partition.core.ShardSpec` fingerprint).  Space-derived
configurations (:mod:`repro.space`) enter by their *contents* exactly
like the Table VI literals — DSE points carry content-derived
``dse-...`` names — so search drivers ride this cache with no layer in
between knowing a parameter space exists.  A prepared run of
any system (:class:`~repro.systems.base.ExecutionPlan`) adds its
parameters under one nested ``params`` stanza instead, so an ``accel``
plan never shares an entry with the accelerator point it wraps.

Every cached run goes through one function, :func:`run_cached`: look
up, else execute, then store.

Keyword-argument order, environment variables, dict iteration order, and
anything else outside those inputs do not affect the key (canonical JSON:
sorted keys, fixed separators).

Entries live one-per-file under ``<root>/results/<key>.json`` where
``root`` defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.  A
report is stored in one encoding (:func:`encode_report`), the same one
sweep workers ship to their parent.  Writes are atomic (temp file +
``os.replace``); unreadable, truncated, or schema-mismatched entries are
silently discarded and deleted, never raised to the caller — a corrupt
cache costs a re-simulation, not a crash.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.accel.config import AcceleratorConfig
from repro.runtime.report import SimulationReport
from repro.runtime.serialize import report_from_dict, report_to_dict

#: Bump to invalidate every existing cache entry (simulator behaviour or
#: report-format changes).
SCHEMA_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Set (to any non-empty value) to disable the default persistent cache.
NO_CACHE_ENV = "REPRO_NO_CACHE"

#: Sentinel for "use the process-wide default cache" — distinct from
#: ``None``, which means "no persistent cache".
DEFAULT_CACHE = object()

#: System name of the simulated accelerator in cache keys (mirrors
#: :data:`repro.systems.registry.DEFAULT_SYSTEM`; a literal here keeps
#: this module importable without the systems package).
ACCEL_SYSTEM = "accel"

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.partition.core import ShardSpec
    from repro.systems.base import SystemReport

def content_key(document: dict[str, Any]) -> str:
    """SHA-256 of a canonical-JSON document (sorted keys, fixed
    separators) — the one hashing convention every cache key uses."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@functools.cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """The field names of a dataclass type; ``None`` for any other type."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(field.name for field in dataclasses.fields(cls))


def _plain(value: Any) -> Any:
    """``value`` as JSON-ready plain data: a dataclass as the dict of its
    fields, a tuple or list as a list, anything else as itself."""
    names = _field_names(type(value))
    if names is not None:
        return {name: _plain(getattr(value, name)) for name in names}
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    return value


def config_fingerprint(config: AcceleratorConfig) -> dict[str, Any]:
    """Every *result-affecting* field of a configuration as plain data
    (the document :func:`dataclasses.asdict` would give, tuples as lists).

    The ``watchdog`` budgets are excluded: they bound whether a run
    terminates, never what a completed run reports, so two sweeps that
    differ only in their timeout budgets share cache entries.
    """
    return {name: _plain(getattr(config, name))
            for name in _field_names(type(config)) if name != "watchdog"}


def key_document(
    system: str, benchmark_key: str, **stanzas: Any
) -> dict[str, Any]:
    """The one cache-key document: ``{schema, system, benchmark, ir}``
    plus ``stanzas`` — ``config`` (and ``shard``) for an accelerator
    point, a nested ``params`` for an
    :class:`~repro.systems.base.ExecutionPlan`."""
    from repro.models.registry import benchmark_ir_digest

    return {
        "schema": SCHEMA_VERSION,
        "system": system,
        "benchmark": benchmark_key,
        "ir": benchmark_ir_digest(benchmark_key),
        **stanzas,
    }


def point_fingerprint(
    benchmark_key: str,
    config: AcceleratorConfig,
    shard: "ShardSpec | None" = None,
) -> dict[str, Any]:
    """The :func:`key_document` behind :func:`point_key`: the
    accelerator system plus the resolved configuration.  A ``shard``
    adds its :meth:`~repro.partition.core.ShardSpec.fingerprint`, so a
    shard never shares an entry with the whole graph, and two partitions
    that differ in method, seed, chip count, or index never share a
    shard.
    """
    document = key_document(ACCEL_SYSTEM, benchmark_key,
                            config=config_fingerprint(config))
    if shard is not None:
        document["shard"] = shard.fingerprint()
    return document


def point_key(
    benchmark_key: str,
    config: AcceleratorConfig,
    shard: "ShardSpec | None" = None,
) -> str:
    """Content hash identifying one (benchmark, resolved config[, shard])
    point.

    ``config`` carries the operating clock (``config.clock_ghz``); use
    :meth:`AcceleratorConfig.with_clock` to key a clock-sweep point.
    """
    return content_key(point_fingerprint(benchmark_key, config, shard))


def encode_report(
    report: "SimulationReport | SystemReport",
) -> dict[str, Any]:
    """A report as the plain data a cache entry and a sweep worker carry:
    ``{"report": ...}``, tagged ``"kind": "system"`` for a cross-system
    :class:`~repro.systems.base.SystemReport`."""
    if isinstance(report, SimulationReport):
        return {"report": report_to_dict(report)}
    from repro.systems.serialize import system_report_to_dict

    return {"kind": "system", "report": system_report_to_dict(report)}


def decode_report(
    entry: dict[str, Any],
) -> "SimulationReport | SystemReport":
    """Rebuild the report of an :func:`encode_report` entry; raises
    ``KeyError``/``TypeError`` on malformed data."""
    if entry.get("kind") == "system":
        from repro.systems.serialize import system_report_from_dict

        return system_report_from_dict(entry["report"])
    return report_from_dict(entry["report"])


class ResultCache:
    """On-disk store of reports, one JSON per key."""

    def __init__(self, root: str | Path | None = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or (
                Path.home() / ".cache" / "repro"
            )
        self.root = Path(root)

    @property
    def results_dir(self) -> Path:
        return self.root / "results"

    def path_for(self, key: str) -> Path:
        return self.results_dir / f"{key}.json"

    def get(self, key: str) -> "SimulationReport | SystemReport | None":
        """The cached report for ``key``, or None.

        Corrupt or stale entries (unparseable JSON, missing fields, a
        different :data:`SCHEMA_VERSION`) are deleted and treated as
        misses.
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._discard(path)
            return None
        try:
            if payload["schema"] != SCHEMA_VERSION or payload["key"] != key:
                raise KeyError("schema or key mismatch")
            return decode_report(payload)
        except (KeyError, TypeError):
            self._discard(path)
            return None

    def put(
        self, key: str, report: "SimulationReport | SystemReport"
    ) -> None:
        """Persist a report atomically (readers never see partial JSON)."""
        payload = {"schema": SCHEMA_VERSION, "key": key,
                   **encode_report(report)}
        self.results_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.results_dir, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, self.path_for(key))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        if not self.results_dir.is_dir():
            return 0
        return sum(1 for _ in self.results_dir.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.results_dir.is_dir():
            for path in self.results_dir.glob("*.json"):
                self._discard(path)
                removed += 1
        return removed

    @staticmethod
    def _discard(path: Path) -> None:
        with contextlib.suppress(OSError):
            path.unlink()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.root)!r}, {len(self)} entries)"


# --- process-wide default store and in-memory memo -----------------------

_default: ResultCache | None = None
_default_set = False

#: Per-process memo: key -> report (simulation or cross-system).
#: Guarantees identity (`a is b`) for repeated lookups of the same
#: operating point within one process.
_MEMO: dict[str, Any] = {}


def default_cache() -> ResultCache | None:
    """The process-wide persistent store (None when disabled).

    Lazily built from ``$REPRO_CACHE_DIR`` / ``~/.cache/repro``;
    ``$REPRO_NO_CACHE`` disables it.  Override with
    :func:`set_default_cache`.
    """
    global _default, _default_set
    if not _default_set:
        _default = None if os.environ.get(NO_CACHE_ENV) else ResultCache()
        _default_set = True
    return _default


def set_default_cache(cache: ResultCache | None) -> None:
    """Replace the process-wide store (None disables persistence)."""
    global _default, _default_set
    _default = cache
    _default_set = True


def reset_default_cache() -> None:
    """Forget any override; re-read the environment on next use."""
    global _default, _default_set
    _default = None
    _default_set = False


def resolve_cache(cache: object) -> ResultCache | None:
    """Map the ``cache=`` convention to a store: sentinel -> default."""
    if cache is DEFAULT_CACHE:
        return default_cache()
    if cache is None or isinstance(cache, ResultCache):
        return cache
    raise TypeError(f"cache must be a ResultCache, None, or DEFAULT_CACHE; "
                    f"got {cache!r}")


@contextlib.contextmanager
def disabled() -> Iterator[None]:
    """Temporarily bypass the persistent store (benchmarks, tests)."""
    global _default, _default_set
    saved = (_default, _default_set)
    set_default_cache(None)
    try:
        yield
    finally:
        _default, _default_set = saved


def clear_memo() -> None:
    """Drop the per-process memo (persistent entries survive)."""
    _MEMO.clear()


def lookup(
    key: str, cache: object = DEFAULT_CACHE
) -> "SimulationReport | SystemReport | None":
    """Layered read: in-memory memo, then the persistent store."""
    report = _MEMO.get(key)
    if report is not None:
        return report
    store = resolve_cache(cache)
    if store is not None:
        report = store.get(key)
        if report is not None:
            _MEMO[key] = report
    return report


def store(
    key: str,
    report: "SimulationReport | SystemReport",
    cache: object = DEFAULT_CACHE,
) -> None:
    """Layered write: memo always, persistent store when enabled."""
    _MEMO[key] = report
    persistent = resolve_cache(cache)
    if persistent is not None:
        persistent.put(key, report)


def run_cached(
    key: str,
    execute: Callable[[], Any],
    cache: object = DEFAULT_CACHE,
) -> Any:
    """The one cache-through run: look up ``key``, else ``execute()``,
    then store."""
    report = lookup(key, cache)
    if report is not None:
        return report
    report = execute()
    store(key, report, cache)
    return report
