"""Differential bit-identity tier: fast path vs. the seed event loop.

The kernel's fast path (event free-list, specialised run loop) and the
engine's vectorised accounting claim to be
*observably identical* to the seed per-event implementation.  This tier
proves it the only way that matters: run every benchmark on both
implementations and require the resulting :class:`SimulationReport`
field-for-field identical — not approximately, bit-for-bit.

Two tiers of the same matrix:

* the fast lane runs one small benchmark per NoC backend on every
  config, so every push exercises the differential contract;
* the full benchmark x config x backend matrix (including MPNN) is
  marked ``slow`` and runs on the nightly lane.
"""

import pytest

from repro.eval.accelerator import _compiled_program, resolve_benchmark_config
from repro.models import BENCHMARKS
from repro.runtime.serialize import report_to_dict
from repro.sim.kernel import FASTPATH_ENV

BENCHMARK_KEYS = tuple(b.key for b in BENCHMARKS)
CONFIG_NAMES = ("CPU iso-BW", "GPU iso-BW")
NOC_BACKENDS = ("packet", "analytical")

#: The fast-lane subset: one cheap benchmark, both backends and configs.
FAST_BENCHMARK = "gcn-cora"


def _simulate(benchmark_key, config_name, noc_backend, monkeypatch,
              fastpath=True):
    """One full simulation with the kernel mode pinned via the env knob.

    The accelerator builds its :class:`~repro.sim.kernel.Simulator` from
    ``$REPRO_SIM_FASTPATH`` at construction time, so flipping the
    variable here selects the implementation without any test-only
    hooks in the production code path.
    """
    from repro.runtime.engine import simulate_detailed

    monkeypatch.setenv(FASTPATH_ENV, "1" if fastpath else "0")
    _, config = resolve_benchmark_config(
        benchmark_key, config_name, noc_backend=noc_backend
    )
    return simulate_detailed(_compiled_program(benchmark_key), config)


def _assert_reports_identical(fast, reference, label):
    """Field-for-field dict equality with a readable per-field diff."""
    fast_dict = report_to_dict(fast)
    ref_dict = report_to_dict(reference)
    if fast_dict == ref_dict:
        return
    diffs = [
        f"  {field}: fastpath={fast_dict[field]!r} "
        f"reference={ref_dict[field]!r}"
        for field in sorted(set(fast_dict) | set(ref_dict))
        if fast_dict.get(field) != ref_dict.get(field)
    ]
    pytest.fail(
        f"{label}: fast path diverged from the seed event loop on "
        f"{len(diffs)} field(s):\n" + "\n".join(diffs)
    )


def _matrix_params():
    """Every benchmark x config x backend cell; non-fast-lane cells slow."""
    params = []
    for key in BENCHMARK_KEYS:
        for config_name in CONFIG_NAMES:
            for backend in NOC_BACKENDS:
                marks = [] if key == FAST_BENCHMARK else [pytest.mark.slow]
                params.append(pytest.param(
                    key, config_name, backend,
                    id=f"{key}-{config_name.replace(' ', '_')}-{backend}",
                    marks=marks,
                ))
    return params


@pytest.mark.parametrize("benchmark_key,config_name,noc_backend",
                         _matrix_params())
def test_fastpath_report_is_bit_identical(benchmark_key, config_name,
                                          noc_backend, monkeypatch):
    fast, _ = _simulate(benchmark_key, config_name, noc_backend,
                        monkeypatch, fastpath=True)
    reference, _ = _simulate(benchmark_key, config_name, noc_backend,
                             monkeypatch, fastpath=False)
    _assert_reports_identical(
        fast, reference, f"{benchmark_key} / {config_name} / {noc_backend}"
    )


def test_fastpath_env_selects_the_mode(monkeypatch):
    """The env knob really flips kernel behaviour (guards the fixture)."""
    from repro.sim.kernel import Simulator

    monkeypatch.setenv(FASTPATH_ENV, "0")
    assert Simulator().fastpath is False
    monkeypatch.setenv(FASTPATH_ENV, "1")
    assert Simulator().fastpath is True
    monkeypatch.delenv(FASTPATH_ENV)
    assert Simulator().fastpath is True
