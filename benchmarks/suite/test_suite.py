"""Tests of the benchmark itself: ``PYTHONPATH=src pytest benchmarks/suite``."""

from __future__ import annotations

import time

import pytest

from benchmarks.suite import digests
from benchmarks.suite.compare import verdict
from benchmarks.suite.metrics import end_to_end, load_spec, per_layer, with_units
from benchmarks.suite.speed import SpeedProbe
from benchmarks.suite.tracing import END, START, Tracer, self_times
from benchmarks.suite.workloads import WORKLOADS, permuted


def declared(kind: str) -> list[tuple[str, str]]:
    return [(m["name"], m["unit"]) for m in load_spec()[kind]]


def printed(metrics: dict) -> list[tuple[str, str]]:
    return [(name, entry["unit"]) for name, entry in metrics.items()]


def test_printed_metric_names_and_units_match_benchmark_json():
    run = {"points_per_s": 1.0, "warm_points_per_s": 2.0, "peak_rss_mb": 3.0}
    metrics = with_units(end_to_end(run, [0.5, 0.4, 0.6]),
                         load_spec()["end_to_end"])
    assert printed(metrics) == declared("end_to_end")
    assert metrics["setup_s"]["value"] == 0.5

    metrics = with_units(per_layer(Tracer(), Tracer(), {}, 0.0),
                         load_spec()["per_layer"])
    assert printed(metrics) == declared("per_layer")


def test_an_undeclared_metric_is_refused():
    with pytest.raises(ValueError, match="undeclared"):
        with_units({"latency_ms": 1.0}, load_spec()["end_to_end"])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in load_spec()["workloads"]] == list(WORKLOADS)


def test_self_time_is_span_duration_minus_covered_child_time():
    # name, start, end, parent, point, hot-call seconds, attrs
    spans = [
        ["root", 0.0, 10.0, -1, None, 0.5, None],
        ["a", 1.0, 4.0, 0, None, 0.0, None],
        ["b", 3.0, 6.0, 0, None, 0.0, None],   # overlaps a: [1, 6] covered
        ["c", 2.0, 3.0, 1, None, 0.25, None],
        ["d", 9.0, 12.0, 0, None, 0.0, None],  # only [9, 10] lies in root
    ]
    assert self_times(spans) == pytest.approx(
        [10 - 5 - 1 - 0.5, 3 - 1, 3, 1 - 0.25, 3])


def test_traced_self_times_sum_to_the_wall_clock():
    tracer = Tracer()
    inner_work = tracer.hot_counter("leaf", lambda: sum(range(2000)))
    outer_work = tracer.hot_counter("call", inner_work)
    with tracer.span("outer"):
        with tracer.span("inner"):
            outer_work()
        inner_work()
    table = tracer.layer_table()
    outer = tracer.spans[0]
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(
        outer[END] - outer[START])
    assert table["leaf"]["calls"] == 2
    assert table["call"]["self_s"] < table["call"]["total_s"]


def test_speed_probe_samples_only_a_busy_process():
    with SpeedProbe() as probe:
        end = time.monotonic() + 0.45
        while time.monotonic() < end:
            pass
        busy = len(probe.samples)
        time.sleep(0.45)
    assert busy >= 2
    assert len(probe.samples) <= busy + 1  # the tick that ends the loop
    assert probe.slowdown() > 0 and probe.stolen_s > 0


def test_a_tick_due_during_a_tick_is_skipped(tmp_path):
    probe = SpeedProbe(tmp_path)
    written = []

    class Sink:
        """A sink whose write runs the next tick, as a flush can."""

        def write(self, text):
            probe._tick(0, None)
            written.append(text)

        def flush(self):
            pass

    probe._sink = Sink()
    probe._last = (time.monotonic() - 1.0, time.thread_time() - 1.0)  # busy
    probe._tick(0, None)
    assert len(written) == len(probe.samples) == 1


def test_seed_permutation_is_deterministic():
    items = list(range(20))
    assert permuted(items, 3) == permuted(items, 3)
    assert sorted(permuted(items, 3)) == items
    assert permuted(items, 3) != permuted(items, 4)


def test_partition_seed_is_never_negative(tmp_path):
    systems = WORKLOADS["systems-mix"]
    assert systems(7, tmp_path).seed == 7
    assert systems(-1, tmp_path).seed == 2**32 - 1


def test_gcn_cora_cpu_iso_bw_digest_matches_pinned_value():
    from repro.exp.runner import figure8_points, simulate_point

    (point,) = figure8_points(benchmarks=["gcn-cora"], configs=["CPU iso-BW"],
                              clocks=(2.4,), noc_backend="packet")
    assert (digests.digest(simulate_point(point))
            == digests.pinned()["accel/packet/CPU iso-BW@2.4/gcn-cora"])


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]

    def judge(change, bound=0.1, better="higher", base=parent):
        return verdict(base, change, list(zip(base, change)), better, bound)

    assert judge([130.0 + i for i in range(10)]) == "improved"
    assert judge([70.0 + i for i in range(10)]) == "worse"
    assert judge([99.0 + i for i in range(10)]) == "no worse"
    assert judge([130.0 + i for i in range(10)], better="lower") == "worse"
    noisy = [50.0, 150.0] * 5
    assert judge([95.0 + i for i in range(10)], base=noisy) == "unresolved"
    assert judge([30.0 + i for i in range(10)], bound=None) == "worse"
    assert judge([99.0 + i for i in range(10)], bound=None) == "-"
