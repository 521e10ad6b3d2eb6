"""Tests for the cached simulation entry point and the fast Figure 8/10
paths.

Full six-benchmark sweeps live in ``benchmarks/``; here we exercise the
drivers on the quick benchmarks (GCN Cora, PGNN DBLP) so the test suite
stays fast while still validating the paper's headline behaviours.
"""

import pytest

from repro.eval.accelerator import run_config
from repro.eval.speedups import Figure8Cell, figure8, mean_speedup
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

    def test_utilizations_bounded(self):
        for row in figure10():
            assert 0 <= row.bandwidth_utilization <= 1
            assert 0 <= row.dna_utilization <= 1
            assert 0 <= row.gpe_utilization <= 1
