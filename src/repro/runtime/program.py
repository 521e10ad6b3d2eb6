"""Vertex-program representation executed by the runtime engine.

The paper's runtime (Algorithm 1) executes, per layer, one vertex program
for every vertex in the work queue.  Each program here is one row of a
layer's :class:`TaskTable` — a pull-model dataflow that computes *one
output vertex* of the layer (Section IV: "a vertex program that describes
the dataflow required to compute one output vertex"):

1. control: fixed runtime bookkeeping on the GPE,
2. structure read: one asynchronous block load (e.g. the adjacency row),
3. traversal: rounds of dependent pointer-chasing reads (multi-hop
   models like PGNN; each visit costs GPE sequencing work),
4. gather + aggregate: neighbour values are fetched by indirect
   asynchronous requests routed straight to this vertex's AGG entry,
5. DNA job: the vertex's dense computation, staged through the DNQ,
6. writeback of the result to memory.

Phases a task does not need are simply left at zero.  The table stores
one read-only integer column per field, so a layer of a million tasks is
a few arrays, not a million objects.  Compiled, hand-written and loaded
layers are all tables: :meth:`TaskTable.rows` and
:meth:`TaskTable.from_rows` convert to and from one plain dict per task,
the row format of a program dump (:mod:`repro.runtime.serialize`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np


#: The scalar task fields a :class:`TaskTable` stores as columns, in
#: phase order (the traversal rounds are stored apart).
TASK_COLUMNS = (
    "vertex",
    "control_instructions",
    "block_load_bytes",
    "gather_count",
    "gather_bytes_each",
    "local_contributions",
    "feature_bytes",
    "dna_macs",
    "output_bytes",
    "dnq_queue",
)

#: The traversal rounds in CSR form: row ``i``'s rounds are entries
#: ``round_ptr[i]:round_ptr[i + 1]`` of ``round_count``/``round_bytes``.
ROUND_COLUMNS = ("round_ptr", "round_count", "round_bytes")

#: Every stored value is below this bound, so the product of any two
#: fields is exact in int64 (numpy integer arithmetic wraps silently).
VALUE_LIMIT = 2**31

#: A task row's keys, in the order a program dump writes them: the
#: scalar columns, with the traversal rounds after the block load.
_AFTER_BLOCK_LOAD = TASK_COLUMNS.index("block_load_bytes") + 1
_ROW_KEYS = (
    TASK_COLUMNS[:_AFTER_BLOCK_LOAD]
    + ("traversal",)
    + TASK_COLUMNS[_AFTER_BLOCK_LOAD:]
)


def _column(name: str, value: object, length: int) -> np.ndarray:
    """One validated read-only int64 column; a scalar broadcasts.

    Every value is an integer in ``[0, VALUE_LIMIT)``.
    """
    data = np.asarray(value)
    if data.size and data.dtype.kind not in "iub":
        raise ValueError(f"{name} must hold integers, not {data.dtype}")
    if data.ndim == 0:
        data = np.full(length, data)
    if data.shape != (length,):
        raise ValueError(
            f"{name} has shape {data.shape}; expected ({length},)"
        )
    if length and int(data.min()) < 0:
        raise ValueError(f"{name} cannot be negative")
    if length and int(data.max()) >= VALUE_LIMIT:
        raise ValueError(f"{name} must be below 2**31")
    column = np.array(data, dtype=np.int64)
    column.flags.writeable = False
    return column


class TaskTable:
    """A layer's vertex tasks, one read-only int64 column per field.

    Build it as ``TaskTable(n, vertex=..., gather_count=..., ...)``: a
    scalar broadcasts to all ``n`` rows and an omitted field is 0.  The
    rows' traversal rounds are ``round_ptr`` (length ``n + 1``) over
    ``round_count``/``round_bytes``; omitted, no row has rounds.  Rounds
    execute serially (round ``i+1`` needs addresses loaded in round
    ``i``); the ``count`` reads within a round overlap.

    Construction checks every value is an integer in ``[0, 2**31)``, so
    the product of any two fields is exact, and that local contributions
    (sourced from traversal data) come with a round; a failure raises
    ``ValueError`` naming the field.  Columns are read-only: compiled
    programs are shared by every simulation of a benchmark in the
    process, so a write would change later results under an unchanged
    cache key.  Hand-written rows go through :meth:`from_rows`.
    """

    def __init__(
        self,
        n: int,
        *,
        round_ptr: object = 0,
        round_count: object = (),
        round_bytes: object = (),
        **columns: object,
    ) -> None:
        unknown = set(columns) - set(TASK_COLUMNS)
        if unknown:
            raise TypeError(f"unknown task fields: {sorted(unknown)}")
        if "vertex" not in columns:
            raise TypeError("a task table needs a vertex column")
        if n < 0:
            raise ValueError("a task table cannot have negative length")
        for name in TASK_COLUMNS:
            setattr(self, name, _column(name, columns.get(name, 0), n))
        self.round_ptr = _column("round_ptr", round_ptr, n + 1)
        rounds = int(self.round_ptr[-1])
        self.round_count = _column("round_count", round_count, rounds)
        self.round_bytes = _column("round_bytes", round_bytes, rounds)
        if self.round_ptr[0] != 0 or np.any(np.diff(self.round_ptr) < 0):
            raise ValueError("round_ptr must start at 0 and never decrease")
        without_rounds = self.round_ptr[1:] == self.round_ptr[:-1]
        if np.any((self.local_contributions > 0) & without_rounds):
            raise ValueError(
                "local_contributions are sourced from traversal data; "
                "a task with local_contributions needs traversal rounds"
            )

    # -- rows: one plain dict per task ----------------------------------------

    def rows(self) -> list[dict[str, Any]]:
        """Every task as a plain dict, the row format of a program dump.

        The keys are ``vertex``, ``control_instructions``,
        ``block_load_bytes``, ``traversal`` (a list of
        ``{"count", "bytes_each"}`` rounds), then the remaining columns
        in :data:`TASK_COLUMNS` order.
        """
        rounds = [
            {"count": count, "bytes_each": size}
            for count, size in zip(self.round_count.tolist(),
                                   self.round_bytes.tolist())
        ]
        ptr = self.round_ptr.tolist()
        values = {name: getattr(self, name).tolist() for name in TASK_COLUMNS}
        values["traversal"] = [rounds[lo:hi] for lo, hi in zip(ptr, ptr[1:])]
        return [
            dict(zip(_ROW_KEYS, row))
            for row in zip(*(values[key] for key in _ROW_KEYS))
        ]

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[str, Any]]) -> "TaskTable":
        """The table of task dicts; the inverse of :meth:`rows`.

        A missing field is 0 and a missing ``traversal`` has no rounds.
        A row without ``vertex``, or with a key :meth:`rows` does not
        write, raises ``TypeError`` naming the key; a bad value raises
        the column's ``ValueError``.
        """
        rows = list(rows)
        unknown = set().union(*rows).difference(_ROW_KEYS)
        if unknown:
            raise TypeError(f"unknown task fields: {sorted(unknown)}")
        if not all("vertex" in row for row in rows):
            raise TypeError("every task row needs a 'vertex'")
        traversals = [row.get("traversal", ()) for row in rows]
        rounds = [r for traversal in traversals for r in traversal]
        return cls(
            len(rows),
            **{name: [row.get(name, 0) for row in rows]
               for name in TASK_COLUMNS},
            round_ptr=np.cumsum([0, *map(len, traversals)]),
            round_count=[r["count"] for r in rounds],
            round_bytes=[r["bytes_each"] for r in rounds],
        )

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writeable.
        self.__dict__.update(state)
        for name in TASK_COLUMNS + ROUND_COLUMNS:
            getattr(self, name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.vertex)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskTable):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in TASK_COLUMNS + ROUND_COLUMNS
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskTable({len(self)} tasks, {len(self.round_count)} rounds)"

    # -- totals (exact Python ints, computed once) ---------------------------

    @cached_property
    def total_dna_macs(self) -> int:
        return sum(self.dna_macs.tolist())

    @cached_property
    def total_visits(self) -> int:
        return sum(self.round_count.tolist())

    @cached_property
    def dram_bytes_requested(self) -> int:
        staged = np.where(self.dna_macs > 0, self.feature_bytes, 0)
        return (
            sum((self.block_load_bytes + self.output_bytes + staged).tolist())
            + sum((self.gather_count * self.gather_bytes_each).tolist())
            + sum((self.round_count * self.round_bytes).tolist())
        )


@dataclass
class LayerProgram:
    """One layer: hardware configuration plus the per-vertex tasks."""

    name: str
    tasks: TaskTable
    dnq_entry_bytes: int = 256
    agg_width_values: int = 16
    dna_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.tasks, TaskTable):
            raise TypeError(
                f"layer {self.name!r} takes a TaskTable, not "
                f"{type(self.tasks).__name__}; build one from task dicts "
                f"with TaskTable.from_rows"
            )
        if not len(self.tasks):
            raise ValueError(f"layer {self.name!r} has no tasks")
        if not 0 < self.dna_efficiency <= 1:
            raise ValueError("dna_efficiency must be in (0, 1]")

    @property
    def total_dna_macs(self) -> int:
        return self.tasks.total_dna_macs

    @property
    def total_visits(self) -> int:
        return self.tasks.total_visits

    @property
    def dram_bytes_requested(self) -> int:
        """DRAM bytes the layer's tasks request from the memory nodes.

        Per task: the block load, every traversal round, the gather
        reads, the feature fetch of a DNA job, and the writeback.  The
        engine checks it against the controllers' ``bytes_requested``
        after every layer.
        """
        return self.tasks.dram_bytes_requested


@dataclass
class AcceleratorProgram:
    """A full GNN model as an ordered layer sequence (Algorithm 1)."""

    name: str
    layers: list[LayerProgram] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("program needs at least one layer")

    @property
    def num_tasks(self) -> int:
        return sum(len(layer.tasks) for layer in self.layers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AcceleratorProgram({self.name!r}, layers={len(self.layers)}, "
            f"tasks={self.num_tasks})"
        )
