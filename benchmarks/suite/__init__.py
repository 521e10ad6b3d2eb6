"""The simulator's benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python -m benchmarks.suite --help``; ``README.md`` beside this
file describes the workloads, the metrics and how to compare two runs.
"""

from pathlib import Path

#: Root of the checkout (holds ``src/`` and ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parents[2]

#: Where runs keep worker scratch directories (removed when each worker
#: ends) and default trace output; ignored by git.
WORKDIR = ROOT / ".bench_suite"
