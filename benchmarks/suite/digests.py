"""Pinned report digests: reference outputs, not reference code.

Every benchmark point whose inputs do not depend on the workload seed
has the sha256 of its canonical report pinned in ``digests.json``: the
canonical JSON (sorted keys, fixed separators) of
:func:`repro.runtime.serialize.report_to_dict` for accelerator points
and of :func:`repro.systems.serialize.system_report_to_dict` for every
other system.  A run whose report hashes differently counts as a
failure.  Seeded points (DSE samples, METIS shards) have no pinned
value; they are checked by cold/warm byte identity instead.

Regenerate after an intentional change to simulated results (the diff
of ``digests.json`` is then the reviewed record of what moved)::

    PYTHONPATH=src python -m benchmarks.suite.digests
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Any

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def canonical(report: Any) -> str:
    """The canonical JSON text of a simulation or system report."""
    from repro.runtime.report import SimulationReport
    from repro.runtime.serialize import report_to_dict
    from repro.systems.serialize import system_report_to_dict

    data = (report_to_dict(report) if isinstance(report, SimulationReport)
            else system_report_to_dict(report))
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(report: Any) -> str:
    return hashlib.sha256(canonical(report).encode("utf-8")).hexdigest()


def point_id(point: Any) -> str:
    """Stable name of a sweep point in ``digests.json``."""
    if point.system != "accel":
        return f"{point.system}/{point.benchmark_key}"
    config = point.resolved_config
    name = (f"accel/{config.noc_backend}/{config.name}@{config.clock_ghz:g}"
            f"/{point.benchmark_key}")
    shard = point.shard
    if shard is not None:
        name += (f"/{shard.method}-seed{shard.seed}"
                 f"/shard{shard.index}of{shard.chips}")
    return name


def pinned() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))["digests"]


def main() -> int:
    from repro.exp.cache import set_default_cache

    from benchmarks.suite import WORKDIR
    from benchmarks.suite.workloads import WORKLOADS

    digests: dict[str, str] = {}
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as scratch:
        set_default_cache(None)
        for name, cls in WORKLOADS.items():
            workload = cls(seed=0, scratch=Path(scratch) / name)
            workload.setup()
            if not workload.pinned_points():
                continue
            print(f"simulating {name} ...", file=sys.stderr)
            workload.cold_pass()
            for point, report in workload.cold_reports():
                if point in workload.pinned_points():
                    digests[point_id(point)] = digest(report)
    DIGESTS_PATH.write_text(json.dumps(
        {"digests": dict(sorted(digests.items()))}, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
