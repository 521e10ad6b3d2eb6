"""Per-layer tracing attached to ``repro`` from outside ``src/``.

The traced run wraps public functions and methods of the ``repro``
modules (:func:`instrument`); nothing under ``src/`` knows it is being
watched.  Two kinds of wrapper exist:

* **spans**, at coarse boundaries only (point, compile, GNN layer, cache
  operation, partition): name, start, end, parent span and point id are
  kept in memory and written out when the run ends;
* **hot counters**, for per-message calls (``delivery_time``,
  ``memory_read``...): a call count and total/self time, no span.  Their
  time is charged to the enclosing span as covered child time, so self
  times still partition the traced wall clock.

A layer's self time is its span's duration minus the part of that
interval its child spans and hot calls cover (:func:`self_times`).

Pool workers forked by the sweep runner inherit the wrappers; each
worker appends its own records to ``<worker_dir>/worker-<pid>.jsonl``
after every point, and :meth:`Tracer.merge_workers` folds them in.
Worker time runs in parallel with the parent, so it is reported beside
the parent's wall-clock partition, never inside it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

# Span record fields (lists, not objects: a traced run keeps ~10^5).
NAME, START, END, PARENT, POINT, HOT, ATTRS = range(7)


def self_times(spans: Sequence[Sequence[Any]]) -> list[float]:
    """Self time of every span: duration minus covered child time.

    Covered child time is the union of the child spans' intervals,
    clipped to the parent's, plus the hot-call time recorded directly
    inside the span (``span[HOT]``).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered - span[HOT])
    return result


class Tracer:
    """In-memory spans, hot counters and numeric notes of one process."""

    def __init__(self, worker_dir: Path | None = None) -> None:
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        self.is_worker = False
        self.spans: list[list[Any]] = []
        self.hot: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self.notes: dict[str, float] = defaultdict(float)
        self.point: tuple[str, str] | None = None  # (id, benchmark)
        # Hot-call seconds inside each open span or hot call, innermost last.
        self._stack: list[list[float]] = []
        self._open_spans: list[int] = []
        self.worker_spans: list[list[Any]] = []
        self.worker_hot: dict[str, list[float]] = {}
        self.worker_notes: dict[str, float] = defaultdict(float)

    # -- spans -----------------------------------------------------------

    def begin(self, name: str, attrs: dict[str, Any] | None = None) -> int:
        if os.getpid() != self.pid:
            self._adopt_worker()
        index = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else -1
        point = self.point[0] if self.point else None
        self.spans.append([name, perf_counter(), 0.0, parent, point, 0.0,
                           attrs])
        self._stack.append([0.0])
        self._open_spans.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[END] = perf_counter()
        span[HOT] = self._stack.pop()[0]
        self._open_spans.pop()
        if self.is_worker and not self._open_spans:
            self._flush_worker()

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict[str, Any] | None = None):
        index = self.begin(name, attrs)
        try:
            yield
        finally:
            self.end(index)

    def note(self, name: str, value: float) -> None:
        self.notes[name] += value

    # -- hot counters ------------------------------------------------------

    def hot_counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` to count calls and time them, with no span."""
        stack = self._stack
        stat = self.hot.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    # -- pool workers --------------------------------------------------------

    def _adopt_worker(self) -> None:
        """First call in a forked worker: forget the parent's records
        (they are the parent's to report) and start fresh in place —
        the hot wrappers hold references to these containers."""
        self.pid = os.getpid()
        self.is_worker = True
        self._reset()

    def _reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._open_spans.clear()
        for stat in self.hot.values():
            stat[:] = [0, 0.0, 0.0]
        self.notes.clear()

    def _flush_worker(self) -> None:
        if self.worker_dir is not None:
            record = {"spans": self.spans, "hot": self.hot,
                      "notes": dict(self.notes)}
            path = self.worker_dir / f"worker-{self.pid}.jsonl"
            with path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
        self._reset()

    def merge_workers(self) -> None:
        """Fold in every worker record written so far."""
        if self.worker_dir is None:
            return
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            pid = path.stem.split("-", 1)[1]
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                base = len(self.worker_spans)
                for span in record["spans"]:
                    if span[PARENT] >= 0:
                        span[PARENT] += base
                    span[ATTRS] = {**(span[ATTRS] or {}), "pid": pid}
                    self.worker_spans.append(span)
                for name, stat in record["hot"].items():
                    mine = self.worker_hot.setdefault(name, [0, 0.0, 0.0])
                    for i in range(3):
                        mine[i] += stat[i]
                for name, value in record["notes"].items():
                    self.worker_notes[name] += value
            path.unlink()

    # -- reduction -------------------------------------------------------------

    def layer_table(self, workers: bool = False) -> dict[str, dict[str, float]]:
        """Per-name calls, inclusive seconds and self seconds."""
        spans = self.worker_spans if workers else self.spans
        hot = self.worker_hot if workers else self.hot
        table: dict[str, dict[str, float]] = {}
        for span, own in zip(spans, self_times(spans)):
            row = table.setdefault(span[NAME],
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span[END] - span[START]
            row["self_s"] += own
        for name, (calls, total, own) in hot.items():
            if calls:
                table[name] = {"calls": calls, "total_s": total,
                               "self_s": own}
        return table

    def all_spans(self) -> Iterable[list[Any]]:
        yield from self.spans
        yield from self.worker_spans

    def all_notes(self) -> dict[str, float]:
        notes = defaultdict(float, self.notes)
        for name, value in self.worker_notes.items():
            notes[name] += value
        return notes


# -- instrumentation -----------------------------------------------------------


def _repro_modules() -> list[Any]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Patches:
    """Wrappers installed by identity, so toggling is exact.

    A module-level function is replaced wherever a ``repro`` module binds
    it (``from repro.exp.cache import lookup`` copies the binding);
    methods and properties are replaced on their class.
    """

    def __init__(self) -> None:
        self._functions: dict[int, tuple[Any, Any]] = {}
        self._members: list[tuple[type, str, Any, Any]] = []

    def function(self, module: Any, name: str, wrapper: Any) -> None:
        original = getattr(module, name)
        self._functions[id(original)] = (original, wrapper)

    def member(self, cls: type, name: str, wrapper: Any) -> None:
        self._members.append((cls, name, cls.__dict__[name], wrapper))

    def apply(self) -> None:
        self._swap({k: w for k, (o, w) in self._functions.items()})
        for cls, name, _original, wrapper in self._members:
            setattr(cls, name, wrapper)

    def remove(self) -> None:
        self._swap({id(w): o for o, w in self._functions.values()})
        for cls, name, original, _wrapper in self._members:
            setattr(cls, name, original)

    @staticmethod
    def _swap(mapping: dict[int, Any]) -> None:
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                replacement = mapping.get(id(value))
                if replacement is not None:
                    setattr(module, attr, replacement)


def instrument(tracer: Tracer, layers_only: bool = False) -> Patches:
    """Build (not apply) the wrappers of every traced ``repro`` layer.

    ``layers_only`` keeps just the points, engine runs and GNN layers
    (``Simulator.run``): a few spans per point, so host time per GNN
    layer is measured without the hot counters' per-message cost.
    """
    import repro.dse.drivers as dse_drivers
    import repro.exp.cache as cache
    import repro.exp.runner as runner
    import repro.graphs.datasets as datasets
    import repro.models.registry as registry
    import repro.partition.core as partition_core
    import repro.partition.shards as shards
    import repro.runtime.compiler as compiler
    import repro.runtime.serialize as serialize
    import repro.systems
    import repro.systems.serialize as system_serialize
    from repro.accel.system import Accelerator
    from repro.noc.backends import available_backends
    from repro.runtime.engine import RuntimeEngine
    from repro.sim.kernel import Simulator
    from repro.space.space import ConfigSpace
    from repro.systems.base import ExecutionPlan

    patches = Patches()

    def spanned(name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def property_span(name: str, prop: property) -> property:
        return property(spanned(name, prop.fget))

    def point_span(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(point, *args, **kwargs):
            saved = tracer.point
            tracer.point = (point.describe(), point.benchmark_key)
            try:
                with tracer.span("exp.runner.point"):
                    return fn(point, *args, **kwargs)
            finally:
                tracer.point = saved
        return wrapper

    def lookup_span(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span("exp.cache.lookup"):
                report = fn(*args, **kwargs)
            tracer.note("exp.cache.lookups", 1)
            tracer.note("exp.cache.hits", report is not None)
            return report
        return wrapper

    def compile_span(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span("runtime.compile"):
                program = fn(*args, **kwargs)
            tracer.note("runtime.tasks",
                        sum(len(layer.tasks) for layer in program.layers))
            return program
        return wrapper

    def sim_run(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            before = sim.events_fired
            index = tracer.begin("sim.run", {})
            try:
                return fn(sim, *args, **kwargs)
            finally:
                tracer.spans[index][ATTRS]["events"] = (
                    sim.events_fired - before
                )
                tracer.end(index)
        return wrapper

    def engine_run(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(engine, program, *args, **kwargs):
            index = tracer.begin("runtime.engine")
            try:
                report = fn(engine, program, *args, **kwargs)
            finally:
                tracer.end(index)
            # Label this run's GNN layers (one Simulator.run per layer).
            config = engine.accel.config
            benchmark = tracer.point[1] if tracer.point else program.name
            spans = tracer.spans
            layer_spans = [
                spans[i] for i in range(index + 1, len(spans))
                if spans[i][NAME] == "sim.run" and spans[i][PARENT] == index
            ]
            for span, layer in zip(layer_spans, report.layers):
                span[ATTRS].update(
                    benchmark=benchmark,
                    config=f"{config.name}@{config.clock_ghz:g}"
                           f"/{config.noc_backend}",
                    layer=layer.name,
                    sim_ns=layer.end_ns - layer.start_ns,
                )
            stats = engine.accel.noc.stats
            tracer.note("noc.packets", stats.get("packets"))
            tracer.note("noc.flit_hops", stats.get("flit_hops"))
            return report
        return wrapper

    def system_execute(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(system, *args, **kwargs):
            name = ("systems.multichip" if system.name == "multichip"
                    else f"systems.execute.{system.name}")
            with tracer.span(name):
                return fn(system, *args, **kwargs)
        return wrapper

    patches.function(runner, "simulate_point", point_span(runner.simulate_point))
    patches.function(runner, "execute_point", point_span(runner.execute_point))
    patches.member(Simulator, "run", sim_run(Simulator.run))
    patches.member(RuntimeEngine, "run", engine_run(RuntimeEngine.run))
    if layers_only:
        return patches

    patches.function(runner, "run_sweep_detailed",
                     spanned("exp.runner.sweep", runner.run_sweep_detailed))
    patches.function(cache, "lookup", lookup_span(cache.lookup))
    patches.function(cache, "store", spanned("exp.cache.store", cache.store))
    for module, name in ((serialize, "report_to_dict"),
                         (serialize, "report_from_dict"),
                         (system_serialize, "system_report_to_dict"),
                         (system_serialize, "system_report_from_dict")):
        patches.function(module, name, spanned("exp.runner.serialize",
                                               getattr(module, name)))
    patches.function(compiler, "compile_model",
                     compile_span(compiler.compile_model))
    patches.function(datasets, "load_dataset",
                     spanned("graphs.load", datasets.load_dataset))
    patches.function(registry, "benchmark_ir_digest",
                     spanned("models.ir", registry.benchmark_ir_digest))
    patches.function(partition_core, "partition_graph",
                     spanned("partition.partition",
                             partition_core.partition_graph))
    patches.function(shards, "compiled_shard_program",
                     spanned("partition.shard_compile",
                             shards.compiled_shard_program))
    patches.function(dse_drivers, "run_dse",
                     spanned("dse", dse_drivers.run_dse))

    patches.member(Accelerator, "__init__",
                   spanned("accel.build", Accelerator.__init__))
    for name in ("memory_read", "gather_read", "memory_write"):
        patches.member(Accelerator, name,
                       tracer.hot_counter("accel.memory",
                                          getattr(Accelerator, name)))
    for cls in {info.factory for info in available_backends()}:
        patches.member(cls, "delivery_time",
                       tracer.hot_counter("noc.delivery", cls.delivery_time))
    patches.member(runner.Point, "key",
                   property_span("exp.runner.key", runner.Point.__dict__["key"]))
    patches.member(ExecutionPlan, "key",
                   property_span("exp.runner.key", ExecutionPlan.__dict__["key"]))
    patches.member(ConfigSpace, "sample",
                   spanned("space.sample", ConfigSpace.sample))
    for family in registry.MODEL_FAMILIES.values():
        if "layer_ir" in family.cls.__dict__:
            patches.member(family.cls, "layer_ir",
                           spanned("models.ir", family.cls.layer_ir))
    system_classes = {type(repro.systems.create_system(name))
                      for name in repro.systems.system_names()}
    for cls in system_classes:
        patches.member(cls, "prepare", spanned("systems.prepare", cls.prepare))
        patches.member(cls, "execute", system_execute(cls.execute))
    return patches


# -- outputs ---------------------------------------------------------------------


def ledger(tracer: Tracer) -> list[dict[str, Any]]:
    """Host cost per benchmark x config x GNN layer (one row each)."""
    rows: dict[tuple[str, str, str], dict[str, float]] = {}
    for span in tracer.all_spans():
        attrs = span[ATTRS] or {}
        if span[NAME] != "sim.run" or "layer" not in attrs:
            continue
        key = (attrs["benchmark"], attrs["config"], attrs["layer"])
        row = rows.setdefault(key, {"runs": 0, "host_ms": 0.0, "events": 0,
                                    "sim_ns": 0.0})
        row["runs"] += 1
        row["host_ms"] += (span[END] - span[START]) * 1e3
        row["events"] += attrs["events"]
        row["sim_ns"] += attrs["sim_ns"]
    return [
        {
            "benchmark": benchmark, "config": config, "layer": layer,
            **row,
            "events_per_s": (row["events"] / (row["host_ms"] / 1e3)
                             if row["host_ms"] else 0.0),
        }
        for (benchmark, config, layer), row in sorted(rows.items())
    ]


def write_trace(directory: Path, tracer: Tracer, layers: Tracer,
                wall_s: float, metrics: dict[str, float]) -> dict[str, Any]:
    """Write ``trace.json`` and ``layers.json`` (the self-time table) from
    the full trace and ``ledger.json`` from the layer-only one."""
    directory.mkdir(parents=True, exist_ok=True)
    parent = tracer.layer_table()
    covered = sum(row["self_s"] for row in parent.values())
    summary = {
        "wall_s": wall_s,
        "self_sum_s": covered,
        "self_sum_share": covered / wall_s if wall_s else 0.0,
        "parent": parent,
        "workers": tracer.layer_table(workers=True),
    }
    fields = ["name", "start", "end", "parent", "point", "hot_s", "attrs"]
    document = {
        "fields": fields,
        "spans": tracer.spans,
        "worker_spans": tracer.worker_spans,
        "hot": tracer.hot,
        "worker_hot": tracer.worker_hot,
        "notes": dict(tracer.all_notes()),
        "metrics": metrics,
    }
    (directory / "trace.json").write_text(json.dumps(document) + "\n")
    (directory / "layers.json").write_text(json.dumps(summary, indent=1) + "\n")
    (directory / "ledger.json").write_text(
        json.dumps(ledger(layers), indent=1) + "\n")
    return summary


def format_layer_table(summary: dict[str, Any]) -> str:
    """The per-layer self-time table, hottest first."""
    lines = [f"{'layer':<28}{'calls':>10}{'self ms':>12}{'share':>8}"]
    wall = summary["wall_s"] or 1.0
    rows = sorted(summary["parent"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        lines.append(f"{name:<28}{int(row['calls']):>10}"
                     f"{row['self_s'] * 1e3:>12.1f}"
                     f"{100 * row['self_s'] / wall:>7.1f}%")
    lines.append(f"{'sum of self times':<38}"
                 f"{summary['self_sum_s'] * 1e3:>12.1f}"
                 f"{100 * summary['self_sum_share']:>7.1f}%"
                 f"  (traced wall {summary['wall_s'] * 1e3:.1f} ms)")
    return "\n".join(lines)
