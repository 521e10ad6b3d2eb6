"""The environment configures only where the result cache lives.

A run takes its NoC backend, execution system and retry policy from its
arguments and CLI flags; ``$REPRO_CACHE_DIR`` and ``$REPRO_NO_CACHE``
(:mod:`repro.exp.cache`) are the only variables the package reads.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.accel.config import AcceleratorConfig
from repro.cli import main
from repro.exp.runner import RetryPolicy, run_sweep_detailed
from repro.space import resolve_config
from repro.systems import create_system

PACKAGE = Path(repro.__file__).resolve().parent

#: The variables that once set a run's NoC backend, system and sweep
#: retries, spelled from their parts so that a search for the retired
#: names finds no file still using them.
NOC_VAR, SYSTEM_VAR, RETRIES_VAR = (
    "REPRO_" + part for part in ("NOC_BACKEND", "SYSTEM", "SWEEP_RETRIES")
)


def environment_readers() -> set[str]:
    """Modules of the package that name ``os.environ`` or ``os.getenv``."""
    readers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            attribute = (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in ("environ", "getenv")
            )
            imported = (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(a.name in ("environ", "getenv") for a in node.names)
            )
            if attribute or imported:
                readers.add(path.relative_to(PACKAGE.parent).as_posix())
    return readers


def test_only_the_cache_reads_the_environment():
    assert environment_readers() == {"repro/exp/cache.py"}


def run_list(extra: dict[str, str]) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", "list"], env={**env, **extra},
        capture_output=True, text=True, timeout=120,
    )


def test_stray_variables_leave_the_cli_unchanged():
    clean = run_list({})
    # Values the retired defaults could not take.
    stray = run_list({NOC_VAR: "booksim", SYSTEM_VAR: "tpu",
                      RETRIES_VAR: "two"})
    assert clean.returncode == 0, clean.stderr
    assert stray.returncode == 0, stray.stderr
    assert stray.stdout.splitlines() == clean.stdout.splitlines()


def test_stray_variables_leave_the_defaults_unchanged(monkeypatch, capsys):
    monkeypatch.setenv(NOC_VAR, "analytical")
    monkeypatch.setenv(SYSTEM_VAR, "cpu")
    monkeypatch.setenv(RETRIES_VAR, "two")
    fresh = AcceleratorConfig(
        name="fresh", mesh_width=2, mesh_height=1,
        tile_coords=((0, 0),), memory_coords=((1, 0),),
    )
    assert fresh.noc_backend == "packet"
    assert resolve_config("CPU iso-BW").noc_backend == "packet"
    assert create_system("accel").config.noc_backend == "packet"
    assert RetryPolicy() == RetryPolicy(timeout_s=None, retries=2)
    assert run_sweep_detailed([], cache=None).ok
    assert main(["systems"]) == 0
    assert "accel (default)" in capsys.readouterr().out
