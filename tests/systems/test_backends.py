"""Per-backend fidelity: CPU/GPU vs Table VII, Eyeriss vs Section II."""

import pytest

from repro.baselines import (
    CPU_MACHINE,
    GPU_MACHINE,
    TABLE7_MEASURED_MS,
    estimate_latency_ms,
)
from repro.models.registry import benchmark_by_key, benchmark_workload
from repro.systems import (
    UnsupportedWorkloadError,
    create_system,
    run_system,
    system_report_from_dict,
    system_report_to_dict,
)

FAST_BENCHMARKS = ("gcn-cora", "gat-cora", "pgnn-dblp_1")


class TestBaselineSystems:
    @pytest.mark.parametrize("benchmark_key", FAST_BENCHMARKS)
    def test_measured_latencies_are_table7_rows(self, benchmark_key):
        cpu_ms, gpu_ms = TABLE7_MEASURED_MS[benchmark_key]
        assert run_system("cpu", benchmark_key).latency_ms == cpu_ms
        assert run_system("gpu", benchmark_key).latency_ms == gpu_ms

    @pytest.mark.parametrize(
        "system, machine",
        [("cpu", CPU_MACHINE), ("gpu", GPU_MACHINE)],
    )
    def test_modeled_latency_is_the_roofline_estimate(
        self, system, machine
    ):
        # Every report carries the machine model's estimate beside the
        # Table VII row.
        for key in ("gcn-cora", "sage-cora"):
            report = run_system(system, key, cache=None)
            workload = benchmark_workload(benchmark_by_key(key))
            assert report.breakdown["modeled_ms"] == pytest.approx(
                estimate_latency_ms(workload, machine)
            )
        # sage-cora has no Table VII row, so it reports the estimate.
        assert "measured_ms" not in report.breakdown
        assert report.latency_ms == report.breakdown["modeled_ms"]

    def test_breakdown_carries_both_numbers(self):
        report = run_system("cpu", "gcn-cora")
        assert report.breakdown["measured_ms"] == report.latency_ms
        assert report.breakdown["modeled_ms"] > 0
        # Roofline terms ride along for the Table VII driver.
        for term in ("dense_ms", "sparse_ms", "memory_ms"):
            assert term in report.breakdown


class TestEyerissSystem:
    def test_matches_the_section2_study(self):
        from repro.eval.section2 import section2_row

        report = run_system("eyeriss", "gcn-cora")
        row = section2_row("cora")
        assert report.latency_ms == pytest.approx(row.limited_ms)
        # The breakdown describes the bandwidth-limited run, like the
        # Table II waste columns do.
        assert report.breakdown["useful_traffic_fraction"] == pytest.approx(
            row.useful_traffic_fraction
        )

    @pytest.mark.parametrize(
        "benchmark_key",
        ["gat-cora", "sage-cora", "gin-citeseer"],
    )
    def test_maps_any_dense_expressible_model(self, benchmark_key):
        report = run_system("eyeriss", benchmark_key, cache=None)
        assert report.latency_ms > 0
        # The breakdown carries one latency term per dense layer.
        assert any(k.startswith("project") for k in report.breakdown)
        assert any(k.startswith("propagate") for k in report.breakdown)

    def test_rejects_traversal_workloads(self):
        # PGNN's dependent multi-hop expansion has no dense-matrix
        # equivalent, so it is the one family eyeriss cannot map.
        # Every benchmark has a plan; executing this one fails.
        system = create_system("eyeriss")
        plan = system.prepare("pgnn-dblp_1")
        with pytest.raises(UnsupportedWorkloadError) as excinfo:
            system.execute(plan)
        message = str(excinfo.value)
        assert "pgnn-dblp_1" in message
        assert "pgnn0.combine" in message  # names the offending IR phases
        assert "traversal" in message


class TestSerialization:
    @pytest.mark.parametrize("system", ["cpu", "gpu", "eyeriss"])
    def test_analytical_reports_round_trip(self, system):
        report = run_system(system, "gcn-cora")
        clone = system_report_from_dict(system_report_to_dict(report))
        assert clone == report

    def test_accel_report_round_trips_with_detail(self):
        report = run_system("accel", "pgnn-dblp_1")
        clone = system_report_from_dict(system_report_to_dict(report))
        assert clone == report
        assert clone.detail == report.detail
