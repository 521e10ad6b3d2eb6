"""Golden digests: fixed reference outputs instead of reference code.

``golden_digests.json`` maps one cell name to the sha256 of a canonical
JSON text (sorted keys, fixed separators), and each test below
recomputes one cell with the current code:

* ``accel/<backend>/<config>@2.4/<benchmark>`` — a simulation report,
  named like :func:`benchmarks.suite.digests.point_id` and hashed by
  :func:`benchmarks.suite.digests.digest`: the six Table VII benchmarks
  on the three Table VI rows, and the extension rows on CPU iso-BW,
  each under the packet and the analytical NoC, plus gcn-cora and
  pgnn-dblp_1 on CPU iso-BW under the flit NoC;
* ``multichip/<backend>/chips<n>/<benchmark>`` — the ``multichip``
  system report (default partition: METIS, seed 0) at 1, 2 and 4 chips;
* ``program/<benchmark>`` — the compiled accelerator program, field for
  field (:func:`repro.runtime.serialize.program_to_dict`), for every
  registered benchmark plus the normalized-attention GAT;
* ``partition/<method>/<dataset>/parts<n>/seed<s>`` — a partition
  method's ``node -> shard`` assignment, hashed as its little-endian
  int64 bytes: ``metis`` and ``bfs`` on four Table V graphs, a stress
  graph and a directed copy of it.

The table records the :data:`repro.exp.cache.SCHEMA_VERSION` it was
generated under.  Cached reports are keyed by configuration and schema
version only, so a change to simulated results that does not bump the
version would be served stale from old caches.  After an intentional
change, bump ``SCHEMA_VERSION`` and regenerate::

    PYTHONPATH=src python -m tests.test_golden_digests

The generator exits 1 without writing when a pinned digest changed but
``SCHEMA_VERSION`` did not; new cells are always allowed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from benchmarks.suite.digests import digest, pinned, point_id

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

TABLE7_BENCHMARKS = (
    "gcn-cora", "gcn-citeseer", "gcn-pubmed", "gat-cora", "mpnn-qm9_1000",
    "pgnn-dblp_1",
)
EXTENSION_BENCHMARKS = ("sage-cora", "sage-pubmed", "gin-citeseer")
CONFIG_NAMES = ("CPU iso-BW", "GPU iso-BW", "GPU iso-FLOPS")
NOC_BACKENDS = ("packet", "analytical")
CLOCK_GHZ = 2.4
MULTICHIP_BENCHMARKS = ("gcn-cora", "gat-cora", "pgnn-dblp_1")
CHIP_COUNTS = (1, 2, 4)
SLOW_BENCHMARKS = ("gcn-pubmed", "sage-pubmed", "mpnn-qm9_1000")
#: Flit-level NoC cells: a few seconds each, so they run with the slow
#: cells; the GPU rows take minutes on flit and stay out.
FLIT_BENCHMARKS = ("gcn-cora", "pgnn-dblp_1")

#: The accel cells ``benchmarks/suite/digests.json`` pins as well.
SUITE_OVERLAP = 15

PARTITIONERS = ("metis", "bfs")
PARTITION_DATASETS = ("cora", "citeseer", "pubmed", "dblp_1")
PARTITION_PARTS = (2, 4, 8)
#: Zero, one and the largest seed the benchmark passes (seeds are mod 2**32).
PARTITION_SEEDS = (0, 1, 2**32 - 1)
#: ``stress_graph(20_000, 120_000, seed=0)``, partitioned into 4 parts.
STRESS_DATASET = "stress_20000x120000"
#: The same graph keeping only its entries from a lower to a higher id: a
#: directed input, where a vertex's in- and out-neighbours differ.
FORWARD_DATASET = "forward_20000x120000"


class Cell(NamedTuple):
    key: str
    benchmark: str
    compute: Callable[[], str]


def accel_key(benchmark_key: str, config) -> str:
    """The cell name of one accelerator simulation."""
    from repro.exp.runner import Point

    return point_id(Point(benchmark_key, config))


def _accel_cell(benchmark_key: str, config_name: str, backend: str) -> Cell:
    from repro.systems.accel import resolve_accel_config

    config = resolve_accel_config(config_name, CLOCK_GHZ, backend)

    def compute() -> str:
        from repro.eval.accelerator import _compiled_program
        from repro.runtime.engine import simulate

        return digest(simulate(_compiled_program(benchmark_key), config))

    return Cell(accel_key(benchmark_key, config), benchmark_key, compute)


def _multichip_cell(benchmark_key: str, backend: str, chips: int) -> Cell:
    def compute() -> str:
        from repro.exp.cache import clear_memo
        from repro.systems import SystemOptions, run_system
        from repro.systems.multichip import MultiChipConfig

        clear_memo()  # simulate every shard, not a memoized report
        options = SystemOptions(noc_backend=backend,
                                multichip=MultiChipConfig(chips=chips))
        return digest(run_system("multichip", benchmark_key,
                                 options=options, cache=None))

    return Cell(f"multichip/{backend}/chips{chips}/{benchmark_key}",
                benchmark_key, compute)


def program_digest(program) -> str:
    from repro.runtime.serialize import program_to_dict

    text = json.dumps(program_to_dict(program), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _program_cell(benchmark_key: str) -> Cell:
    def compute() -> str:
        from repro.models.registry import benchmark_by_key, load_benchmark
        from repro.runtime.compiler import compile_model

        model, data = load_benchmark(benchmark_by_key(benchmark_key))
        return program_digest(compile_model(model, data))

    return Cell(f"program/{benchmark_key}", benchmark_key, compute)


def _normalized_gat_cell() -> Cell:
    # The registry GAT row runs with attention normalization off.
    def compute() -> str:
        from repro.graphs.datasets import load_dataset
        from repro.models.gat import GAT
        from repro.runtime.compiler import compile_model

        graph = load_dataset("cora")
        model = GAT(in_features=graph.num_node_features, hidden_features=8,
                    out_features=7, num_heads=8, normalize=True)
        return program_digest(compile_model(model, graph))

    return Cell("program/gat-cora+normalize", "gat-cora", compute)


@functools.lru_cache(maxsize=None)
def _partition_graph(dataset: str):
    from repro.graphs.datasets import load_dataset
    from repro.graphs.generators import stress_graph

    if dataset == FORWARD_DATASET:
        import numpy as np

        from repro.graphs.graph import Graph

        graph = _partition_graph(STRESS_DATASET)
        rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
        forward = rows < graph.indices
        edges = np.stack([rows[forward], graph.indices[forward]], axis=1)
        return Graph.from_edge_list(graph.num_nodes, edges, undirected=False)
    if dataset == STRESS_DATASET:
        return stress_graph(20_000, 120_000, seed=0)
    return load_dataset(dataset)


def _partition_cell(method: str, dataset: str, parts: int, seed: int) -> Cell:
    def compute() -> str:
        import numpy as np

        from repro.partition.methods import PARTITION_METHODS

        assignment = PARTITION_METHODS[method](_partition_graph(dataset),
                                               parts, seed)
        data = np.asarray(assignment, dtype="<i8").tobytes()
        return hashlib.sha256(data).hexdigest()

    return Cell(f"partition/{method}/{dataset}/parts{parts}/seed{seed}",
                dataset, compute)


def cells() -> list[Cell]:
    from repro.models.registry import ALL_BENCHMARKS

    table = [
        _accel_cell(benchmark, config_name, backend)
        for benchmark in TABLE7_BENCHMARKS
        for config_name in CONFIG_NAMES
        for backend in NOC_BACKENDS
    ]
    table += [
        _accel_cell(benchmark, "CPU iso-BW", backend)
        for benchmark in EXTENSION_BENCHMARKS
        for backend in NOC_BACKENDS
    ]
    table += [
        _accel_cell(benchmark, "CPU iso-BW", "flit")
        for benchmark in FLIT_BENCHMARKS
    ]
    table += [
        _multichip_cell(benchmark, backend, chips)
        for benchmark in MULTICHIP_BENCHMARKS
        for backend in NOC_BACKENDS
        for chips in CHIP_COUNTS
    ]
    table += [_program_cell(b.key) for b in ALL_BENCHMARKS]
    table.append(_normalized_gat_cell())
    table += [
        _partition_cell(method, dataset, parts, seed)
        for method in PARTITIONERS
        for dataset in PARTITION_DATASETS
        for parts in PARTITION_PARTS
        for seed in PARTITION_SEEDS
    ]
    table += [
        _partition_cell(method, dataset, 4, seed)
        for method in PARTITIONERS
        for dataset in (STRESS_DATASET, FORWARD_DATASET)
        for seed in PARTITION_SEEDS
    ]
    return table


@functools.lru_cache(maxsize=None)
def _table() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def golden(key: str) -> str:
    """The pinned digest of one cell."""
    return _table()["digests"][key]


CELLS = cells()


def _slow(cell: Cell) -> bool:
    return (cell.benchmark in SLOW_BENCHMARKS
            or cell.key.startswith("accel/flit/"))


@pytest.mark.parametrize("cell", [
    pytest.param(cell, id=cell.key,
                 marks=[pytest.mark.slow] if _slow(cell) else [])
    for cell in CELLS
])
def test_digest(cell):
    assert cell.compute() == golden(cell.key), (
        f"{cell.key} no longer reproduces its pinned digest; if the change "
        f"is intended, bump repro.exp.cache.SCHEMA_VERSION and regenerate "
        f"with `PYTHONPATH=src python -m tests.test_golden_digests`"
    )


@pytest.mark.parametrize("backend", NOC_BACKENDS)
def test_lowered_program_simulates_to_the_pinned_report(backend):
    # The program and report cells pin one lowering: gcn-cora, lowered
    # afresh, hashes to its program cell, and that very program simulates
    # to its CPU iso-BW report cell under both interconnect fidelities.
    from repro.models.registry import benchmark_by_key, load_benchmark
    from repro.runtime.compiler import compile_model
    from repro.runtime.engine import simulate
    from repro.systems.accel import resolve_accel_config

    model, data = load_benchmark(benchmark_by_key("gcn-cora"))
    program = compile_model(model, data)
    assert program_digest(program) == golden("program/gcn-cora")
    config = resolve_accel_config("CPU iso-BW", CLOCK_GHZ, backend)
    assert digest(simulate(program, config)) == golden(
        accel_key("gcn-cora", config)
    )


def test_table_holds_exactly_the_cells():
    assert sorted(_table()["digests"]) == sorted(cell.key for cell in CELLS)


def test_table_records_the_cache_schema_version():
    from repro.exp.cache import SCHEMA_VERSION

    assert _table()["schema_version"] == SCHEMA_VERSION


def test_suite_pins_agree_with_the_table():
    shared = {key: value for key, value in pinned().items()
              if key in _table()["digests"]}
    assert len(shared) == SUITE_OVERLAP
    assert shared == {key: golden(key) for key in shared}


def main() -> int:
    from repro.exp.cache import SCHEMA_VERSION

    digests = {}
    for cell in CELLS:
        print(f"{cell.key} ...", file=sys.stderr)
        digests[cell.key] = cell.compute()
    if GOLDEN_PATH.exists():
        recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        moved = sorted(key for key, value in recorded["digests"].items()
                       if digests.get(key, value) != value)
        if moved and recorded["schema_version"] == SCHEMA_VERSION:
            print(f"{len(moved)} pinned digest(s) changed but SCHEMA_VERSION "
                  f"is still {SCHEMA_VERSION}; bump it so old caches cannot "
                  f"serve stale reports:", file=sys.stderr)
            for key in moved:
                print(f"  {key}", file=sys.stderr)
            return 1
    GOLDEN_PATH.write_text(json.dumps(
        {"schema_version": SCHEMA_VERSION,
         "digests": dict(sorted(digests.items()))}, indent=1) + "\n",
        encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
