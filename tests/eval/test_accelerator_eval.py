"""Tests for the cached simulation entry point and the Figure 8/10
drivers.

The fast paths exercise the drivers on the quick benchmarks (GCN Cora,
PGNN DBLP); the ``slow`` classes check Section VI's claims over all six
benchmarks, sharing their simulations with the other eval tests through
the process-wide cache.
"""

import pytest

from repro.eval.accelerator import run_config
from repro.eval.speedups import (
    FIGURE8_GROUPS,
    Figure8Cell,
    figure8,
    mean_speedup,
)
from repro.eval.utilization import figure10
from repro.systems.accel import resolve_accel_config


class TestRunBenchmark:
    def test_results_are_cached(self):
        a = run_config("gcn-cora", resolve_accel_config("CPU iso-BW", 2.4))
        b = run_config("gcn-cora", resolve_accel_config("CPU iso-BW", 2.4))
        assert a is b

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            run_config("transformer-wikipedia", resolve_accel_config())

    def test_unknown_config_rejected(self):
        with pytest.raises(KeyError):
            run_config("gcn-cora", resolve_accel_config("TPU iso-carbon"))

    def test_report_is_tagged(self):
        report = run_config("pgnn-dblp_1",
                            resolve_accel_config("CPU iso-BW", 2.4))
        assert report.benchmark == "PGNN"
        assert report.config_name == "CPU iso-BW"


class TestFigure8FastPath:
    @pytest.fixture(scope="class")
    def cells(self):
        return figure8(
            clocks=(1.2, 2.4),
            groups=(("CPU iso-BW", "cpu"),),
            benchmarks=("gcn-cora", "pgnn-dblp_1"),
        )

    def test_cell_count(self, cells):
        assert len(cells) == 4

    def test_gcn_cora_beats_cpu(self, cells):
        cell = next(
            c for c in cells
            if c.benchmark == "gcn-cora" and c.clock_ghz == 2.4
        )
        assert cell.speedup > 3.0

    def test_pgnn_loses_to_cpu(self, cells):
        # Section VI-A: PGNN sees a ~12% slowdown at 2.4 GHz.
        cell = next(
            c for c in cells
            if c.benchmark == "pgnn-dblp_1" and c.clock_ghz == 2.4
        )
        assert 0.7 < cell.speedup < 1.0

    def test_pgnn_scales_with_clock(self, cells):
        # PGNN is GPE-bound, so halving the clock halves its speedup.
        fast = next(
            c for c in cells
            if c.benchmark == "pgnn-dblp_1" and c.clock_ghz == 2.4
        )
        slow = next(
            c for c in cells
            if c.benchmark == "pgnn-dblp_1" and c.clock_ghz == 1.2
        )
        assert slow.speedup == pytest.approx(fast.speedup / 2, rel=0.15)

    def test_gcn_is_memory_bound_across_clocks(self, cells):
        # Section VI-B: little change between 2.4 and 1.2 GHz for GCN.
        fast = next(
            c for c in cells
            if c.benchmark == "gcn-cora" and c.clock_ghz == 2.4
        )
        slow = next(
            c for c in cells
            if c.benchmark == "gcn-cora" and c.clock_ghz == 1.2
        )
        assert slow.speedup > 0.5 * fast.speedup

    def test_mean_speedup(self, cells):
        value = mean_speedup(cells, "CPU iso-BW", 2.4)
        individual = [
            c.speedup for c in cells
            if c.clock_ghz == 2.4 and c.config == "CPU iso-BW"
        ]
        assert value == pytest.approx(sum(individual) / len(individual))

    def test_mean_speedup_missing_group_rejected(self, cells):
        with pytest.raises(ValueError):
            mean_speedup(cells, "GPU iso-BW", 2.4)

    def test_speedup_property(self):
        cell = Figure8Cell(
            config="c", baseline="cpu", benchmark="b",
            clock_ghz=2.4, latency_ms=2.0, baseline_ms=10.0,
        )
        assert cell.speedup == 5.0


def speedups(config, clock_ghz, benchmarks=None):
    """One Figure 8 group's speedups at one clock, by benchmark."""
    group = next(g for g in FIGURE8_GROUPS if g[0] == config)
    cells = figure8(clocks=(clock_ghz,), groups=(group,),
                    benchmarks=benchmarks)
    return {cell.benchmark: cell.speedup for cell in cells}


@pytest.mark.slow
class TestFigure8:
    """Section VI's Figure 8 claims over all six benchmarks."""

    def test_cpu_iso_bw_speeds_up_all_but_pgnn(self):
        speedup = speedups("CPU iso-BW", 2.4)
        for key in ("gcn-cora", "gcn-citeseer", "gcn-pubmed", "gat-cora",
                    "mpnn-qm9_1000"):
            assert speedup[key] > 1.0, key

    def test_gat_and_mpnn_among_the_best_at_cpu_iso_bw(self):
        # They have the most computation executing on the DNA.
        speedup = speedups("CPU iso-BW", 2.4)
        ranked = sorted(speedup, key=speedup.get, reverse=True)
        assert set(ranked[:3]) >= {"gat-cora", "mpnn-qm9_1000"}

    def test_citeseer_barely_moves_with_clock_at_cpu_iso_bw(self):
        slow = speedups("CPU iso-BW", 1.2, ("gcn-citeseer",))
        fast = speedups("CPU iso-BW", 2.4, ("gcn-citeseer",))
        assert slow["gcn-citeseer"] > 0.6 * fast["gcn-citeseer"]

    def test_gpu_iso_bw_speeds_up_everything(self):
        # Section VI-B: speedups across all benchmarks.
        for key, speedup in speedups("GPU iso-BW", 2.4).items():
            assert speedup > 1.0, key

    def test_mpnn_scales_with_clock_more_than_gcn_at_iso_flops(self):
        # MPNN is compute-bound, GCN Citeseer memory-bound.
        keys = ("gcn-citeseer", "mpnn-qm9_1000")
        slow = speedups("GPU iso-FLOPS", 1.2, keys)
        fast = speedups("GPU iso-FLOPS", 2.4, keys)
        assert (
            fast["mpnn-qm9_1000"] / slow["mpnn-qm9_1000"]
            > fast["gcn-citeseer"] / slow["gcn-citeseer"]
        )


class TestConfigContentKeying:
    def test_mutated_configurations_entry_is_not_served_stale(
        self, monkeypatch
    ):
        # Regression: the name-based entry point used to memoize on the
        # *name* of the configuration, so replacing a table entry (as
        # examples/design_sweeps.py encourages) silently returned the old
        # report.  Keys are content hashes of the resolved config now.
        import dataclasses

        from repro.accel.config import CONFIGURATIONS_BY_NAME, resolve_config

        cpu_iso_bw = resolve_config("CPU iso-BW")
        baseline = run_config("gcn-cora",
                              resolve_accel_config("CPU iso-BW", 2.4))
        starved = dataclasses.replace(
            cpu_iso_bw,
            memory=dataclasses.replace(
                cpu_iso_bw.memory, bandwidth_gbps=17.0
            ),
        )
        assert starved.name == "CPU iso-BW"  # same name, different hardware
        monkeypatch.setitem(CONFIGURATIONS_BY_NAME, "CPU iso-BW", starved)
        report = run_config("gcn-cora",
                            resolve_accel_config("CPU iso-BW", 2.4))
        assert report is not baseline
        # GCN is bandwidth-bound: a quarter of the memory bandwidth must
        # show up as a real slowdown, not a stale cache hit.
        assert report.latency_ms > 1.5 * baseline.latency_ms
        # The untouched operating point is still served from the cache.
        assert run_config(
            "gcn-cora", resolve_accel_config("CPU iso-BW", 2.4)
        ) is report


@pytest.mark.slow
class TestFigure10:
    def test_rows_cover_all_benchmarks(self):
        # figure10 simulates all six benchmarks; reuse of the shared cache
        # keeps this affordable, but it is the slowest test in the suite.
        rows = figure10()
        assert [r.benchmark for r in rows] == [
            "gcn-cora", "gcn-citeseer", "gcn-pubmed",
            "gat-cora", "mpnn-qm9_1000", "pgnn-dblp_1",
        ]

    def test_pgnn_has_idle_dna_and_busy_gpe(self):
        rows = {r.benchmark: r for r in figure10()}
        pgnn = rows["pgnn-dblp_1"]
        assert pgnn.dna_utilization < 0.02
        assert pgnn.gpe_utilization > 0.9

    def test_gcn_bandwidth_ordering(self):
        # Figure 10: Cora sustains more of the 68 GBps than Pubmed.
        rows = {r.benchmark: r for r in figure10()}
        assert (
            rows["gcn-cora"].bandwidth_utilization
            > rows["gcn-pubmed"].bandwidth_utilization
        )

    def test_gcn_cora_sustains_the_bandwidth(self):
        rows = {r.benchmark: r for r in figure10()}
        assert rows["gcn-cora"].bandwidth_utilization > 0.4

    def test_gat_and_mpnn_keep_the_dna_busy(self):
        # GAT and MPNN have the most computation executing on the DNA.
        rows = {r.benchmark: r for r in figure10()}
        assert rows["gat-cora"].dna_utilization > 0.5
        assert rows["mpnn-qm9_1000"].dna_utilization > 0.5

    def test_utilizations_bounded(self):
        for row in figure10():
            assert 0 <= row.bandwidth_utilization <= 1
            assert 0 <= row.dna_utilization <= 1
            assert 0 <= row.gpe_utilization <= 1
