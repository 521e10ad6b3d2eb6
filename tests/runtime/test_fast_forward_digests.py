"""Pinned fast-forward reports: reference outputs, not reference code.

No benchmark workload runs ``AcceleratorConfig.fast_forward``, so its
schedule is pinned here instead: the sha256 of the canonical JSON
(sorted keys, fixed separators) of ``report_to_dict`` for four paper
benchmarks at CPU iso-BW 2.4 GHz, each on the packet and analytical
NoC.  A change to how the engine inlines continuations, or to what the
kernel reports as inline-safe, moves one of these digests.

Regenerate after an intentional change to fast-forward results (the
diff of ``fast_forward_digests.json`` is then the reviewed record)::

    PYTHONPATH=src python -m tests.runtime.test_fast_forward_digests
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.eval.accelerator import _compiled_program, resolve_benchmark_config
from repro.runtime.engine import simulate
from repro.runtime.serialize import report_to_dict

DIGESTS_PATH = Path(__file__).with_name("fast_forward_digests.json")

BENCHMARK_KEYS = ("gcn-cora", "gat-cora", "gcn-citeseer", "pgnn-dblp_1")
NOC_BACKENDS = ("packet", "analytical")

#: The costliest benchmark (compile plus both runs) goes to the nightly
#: lane; every other cell runs on every push.
SLOW_BENCHMARKS = {"gcn-citeseer"}


def cell_id(benchmark_key: str, noc_backend: str) -> str:
    return f"{benchmark_key}/{noc_backend}"


def fast_forward_digest(benchmark_key: str, noc_backend: str) -> str:
    _, config = resolve_benchmark_config(
        benchmark_key, "CPU iso-BW", 2.4, noc_backend=noc_backend,
        fast_forward=True,
    )
    report = simulate(_compiled_program(benchmark_key), config)
    text = json.dumps(report_to_dict(report), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cells():
    params = []
    for key in BENCHMARK_KEYS:
        for backend in NOC_BACKENDS:
            marks = [pytest.mark.slow] if key in SLOW_BENCHMARKS else []
            params.append(pytest.param(key, backend,
                                       id=cell_id(key, backend), marks=marks))
    return params


@pytest.mark.parametrize("benchmark_key,noc_backend", _cells())
def test_fast_forward_report_matches_pinned_digest(benchmark_key,
                                                   noc_backend):
    pinned = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    assert fast_forward_digest(benchmark_key, noc_backend) == pinned[
        cell_id(benchmark_key, noc_backend)
    ]


def main() -> None:
    digests = {
        cell_id(key, backend): fast_forward_digest(key, backend)
        for key in BENCHMARK_KEYS
        for backend in NOC_BACKENDS
    }
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
