"""The CI ``serve-smoke`` scenario: QM9 on two accelerator instances,
one injected crash, analytical NoC, SLO attainment inside a checked-in
golden band.

Marked slow: the first run prices QM9 on the accelerator (on the
``analytical`` NoC, which is also the degradation config, so one
simulation) before the serving replay itself finishes in milliseconds.
The JSON report is written to ``$REPRO_SERVE_REPORT`` when set (the CI
job uploads it as an artifact on failure) or to the test's tmp dir
otherwise.
"""

import json
import os
from pathlib import Path

import pytest

from repro.serve import ServeReport, slo_band

GOLDEN = json.loads(
    (Path(__file__).parent / "serve_golden.json").read_text(encoding="utf-8")
)

pytestmark = pytest.mark.slow


def test_serve_smoke_attainment_within_golden_band(tmp_path, capsys):
    from repro.cli import main

    scenario = GOLDEN["scenario"]
    out_path = Path(os.environ.get("REPRO_SERVE_REPORT",
                                   tmp_path / "serve_smoke.json"))
    argv = [
        "serve-sim", scenario["benchmark"],
        "--systems", *scenario["systems"],
        "--instances", str(scenario["instances"]),
        "--arrival", scenario["arrival"],
        "--rate", str(scenario["rate_qps"]),
        "--duration-ms", str(scenario["duration_ms"]),
        "--seed", str(scenario["seed"]),
        "--slo-ms", str(scenario["slo_ms"]),
        "--noc-backend", scenario["noc_backend"],
        "--fault", scenario["fault"],
        "--output", str(out_path),
    ]
    assert main(argv) == 0
    capsys.readouterr()

    document = json.loads(out_path.read_text(encoding="utf-8"))
    report = ServeReport.from_dict(document["reports"]["accel"])
    violation = slo_band(report, GOLDEN["band"])
    assert violation is None, f"{violation}\nreport: {out_path}"
    # The crash must actually have been exercised, with failover.
    assert report.faults
    assert report.retries >= 1
    assert document["reports"]["accel"]["saturation_qps"] > 0
