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

The ``fast_forward`` approximation gets a *band* test instead: on
workloads where the exact run shows no contention — detected from the
run's own stall counters, never from a hand-maintained benchmark list —
the closed-form schedule must land within 0.1% of the exact latency.
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
              fastpath=True, fast_forward=False):
    """One full simulation with the kernel mode pinned via the env knob.

    The accelerator builds its :class:`~repro.sim.kernel.Simulator` from
    ``$REPRO_SIM_FASTPATH`` at construction time, so flipping the
    variable here selects the implementation without any test-only
    hooks in the production code path.
    """
    from repro.runtime.engine import simulate_detailed

    monkeypatch.setenv(FASTPATH_ENV, "1" if fastpath else "0")
    _, config = resolve_benchmark_config(
        benchmark_key, config_name, noc_backend=noc_backend,
        fast_forward=fast_forward,
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


# -- fast-forward band ------------------------------------------------------


def _contention_events(accel):
    """Contention visible in a finished run, from its own counters.

    Mirrors the engine's ``_ff_ok`` eligibility probe: aggregation-buffer
    allocation stalls, DNQ reservation stalls, memory-queue stalls, and
    NoC link occupancy conflicts are the mechanisms whose *ordering*
    fast-forward approximates away.  (GPE thread-pool queueing is
    deliberately not contention — grants are explicitly timestamped, so
    the inline schedule preserves them exactly.)
    """
    stalls = 0.0
    for tile in accel.tiles:
        stalls += tile.agg.stats.get("alloc_stalls")
        stalls += tile.dnq.stats.get("reservation_stalls")
    for memory in accel.memories:
        stalls += memory.stats.get("queue_stalls")
    return stalls


#: Band-test fast lane: the cheap differential benchmark plus one cheap
#: workload that actually qualifies as contention-free (pgnn-dblp_1's
#: dependent traversals keep the DNQ shallow), so both the skip path and
#: the 0.1% assertion execute on every push.
FF_FAST_BENCHMARKS = (FAST_BENCHMARK, "pgnn-dblp_1")


def _ff_band_cases():
    params = []
    for key in BENCHMARK_KEYS:
        marks = [] if key in FF_FAST_BENCHMARKS else [pytest.mark.slow]
        params.append(pytest.param(key, id=key, marks=marks))
    return params


@pytest.mark.parametrize("benchmark_key", _ff_band_cases())
def test_fast_forward_within_band_when_contention_free(benchmark_key,
                                                       monkeypatch):
    """On contention-free workloads, fast-forward lands within 0.1%.

    Eligibility is *detected* from the exact run's stall counters — the
    same contention mechanisms the engine's live ``_ff_ok`` probe
    checks — never hand-listed per benchmark.  Contention-bearing
    workloads only need to complete and produce a sane report (the
    approximation is allowed to shift their latency).
    """
    exact, accel = _simulate(benchmark_key, "CPU iso-BW", "analytical",
                             monkeypatch, fast_forward=False)
    approx, _ = _simulate(benchmark_key, "CPU iso-BW", "analytical",
                          monkeypatch, fast_forward=True)
    assert approx.latency_ns > 0
    if _contention_events(accel) > 0:
        pytest.skip(
            f"{benchmark_key} shows contention in the exact run; "
            f"fast-forward accuracy is not specified for it"
        )
    error = abs(approx.latency_ns - exact.latency_ns) / exact.latency_ns
    assert error <= 1e-3, (
        f"{benchmark_key}: fast-forward latency off by {error:.3%} "
        f"(exact {exact.latency_ns:.1f} ns, approx {approx.latency_ns:.1f} ns)"
    )


def test_some_workload_is_contention_free(monkeypatch):
    """The band test must not be vacuous: at least one fast-lane
    workload qualifies as contention-free under the detector."""
    _, accel = _simulate("pgnn-dblp_1", "CPU iso-BW", "analytical",
                         monkeypatch, fast_forward=False)
    assert _contention_events(accel) == 0


def test_fast_forward_participates_in_cache_key():
    from repro.accel.config import CPU_ISO_BW
    from repro.exp.cache import point_key

    exact = point_key("gcn-cora", CPU_ISO_BW)
    approx = point_key("gcn-cora", CPU_ISO_BW.with_fast_forward())
    assert exact != approx
