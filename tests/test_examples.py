"""Smoke tests: every fast example must run end to end.

The examples are the public face of the library; these tests import each
script and run its ``main()``, asserting it produces output and raises
nothing.  ``reproduce_paper --fast`` runs as a slow test that checks it
prints exactly what ``repro NAME`` prints for every artifact.  The one
multi-minute script, ``design_sweeps``, is exercised through its building
blocks in ``tests/eval`` instead; here we only check it parses and
exposes main().
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


FAST_EXAMPLES = [
    "quickstart",
    "dnn_accelerator_study",
    "noc_traffic_study",
    "trace_debugging",
    "custom_gnn_accelerator",
]


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name, capsys):
    module = load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert len(out.splitlines()) > 3


def test_quickstart_reports_speedup(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "speedup over the measured CPU baseline" in out
    assert "simulated latency" in out


def test_custom_program_reports_its_sweep(capsys):
    # The one example that builds vertex-task rows by hand: its 1-tile
    # 2.4 GHz row is latency, bandwidth and DNA utilization.
    load_example("custom_gnn_accelerator").main()
    rows = capsys.readouterr().out.splitlines()
    row = next(r for r in rows if r.startswith("1 tiles @ 2.4 GHz"))
    assert row.split()[-3:] == ["0.664ms", "85%", "25%"]


def test_dnn_study_reports_pubmed_waste(capsys):
    load_example("dnn_accelerator_study").main()
    out = capsys.readouterr().out
    assert "Pubmed" in out
    assert "Global buffer sweep" in out


@pytest.mark.slow
def test_reproduce_paper_prints_every_artifact(capsys):
    """``reproduce_paper.py --fast`` prints each artifact's ``repro NAME``
    output verbatim, in :data:`repro.cli.ARTIFACTS` order, and then the
    Figure 8 and Figure 10 bar charts."""
    from repro.cli import ARTIFACTS, figure8_cells, main
    from repro.eval import figure8_chart, figure10, figure10_chart
    from repro.eval.speedups import FIGURE8_GROUPS

    load_example("reproduce_paper").main(["--fast"])
    out = capsys.readouterr().out
    expected = []
    for artifact in ARTIFACTS:
        command = [artifact.name] + (["--fast"] if artifact.fast else [])
        assert main(command) == 0
        expected.append(f"$ python -m repro {' '.join(command)}\n"
                        f"{capsys.readouterr().out}\n")
    cells = figure8_cells(fast=True)
    expected += [figure8_chart(cells, config) + "\n\n"
                 for config, _ in FIGURE8_GROUPS]
    expected.append(figure10_chart(figure10()) + "\n")
    assert out == "".join(expected)


@pytest.mark.parametrize(
    "name",
    FAST_EXAMPLES + [
        "gnn_model_zoo",
        "design_sweeps",
        "reproduce_paper",
    ],
)
def test_every_example_defines_main(name):
    module = load_example(name)
    assert callable(module.main)
