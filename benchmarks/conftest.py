"""Shared helpers for the benchmark harness.

Every paper table and figure has one module here; running

    pytest benchmarks/ --benchmark-only

regenerates them all and prints the reproduced rows next to the paper's
values (captured output is shown with ``-s`` or on failure).
"""

from __future__ import annotations

import pytest

from repro.eval.accelerator import _compiled_program
from repro.exp import cache as result_cache


@pytest.fixture
def fresh_simulations():
    """Clear the simulation caches so a benchmark times real work.

    Drops the in-memory memo and bypasses the persistent on-disk store
    for the duration — otherwise a second benchmark run would time JSON
    reads instead of simulations.
    """
    result_cache.clear_memo()
    with result_cache.disabled():
        yield
    result_cache.clear_memo()


@pytest.fixture(scope="session", autouse=True)
def warm_programs():
    """Compile all benchmark programs once so benches time simulation,
    not compilation or dataset generation."""
    from repro.models import BENCHMARKS

    for benchmark in BENCHMARKS:
        _compiled_program(benchmark.key)
