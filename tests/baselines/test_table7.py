"""Tests for Table VII baseline latencies."""

import pytest

from repro.baselines import (
    CPU_MACHINE,
    GPU_MACHINE,
    TABLE7_MEASURED_MS,
    estimate_latency_ms,
)
from repro.models import BENCHMARKS
from repro.models.registry import benchmark_by_key, benchmark_workload
from repro.systems import run_system
from repro.systems.baseline import BaselineSystem


def test_measured_values_match_paper():
    assert TABLE7_MEASURED_MS["gcn-cora"] == (3.50, 0.366)
    assert TABLE7_MEASURED_MS["mpnn-qm9_1000"] == (2716.00, 443.3)
    assert TABLE7_MEASURED_MS["pgnn-dblp_1"] == (15.70, 7.50)


def test_every_benchmark_has_a_row():
    for benchmark in BENCHMARKS:
        assert benchmark.key in TABLE7_MEASURED_MS


def test_baseline_latency_measured_lookup():
    assert run_system("cpu", "gcn-pubmed", cache=None).latency_ms == 30.11
    assert run_system("gpu", "gcn-pubmed", cache=None).latency_ms == 0.893


def test_unknown_system_rejected():
    with pytest.raises(ValueError):
        BaselineSystem("tpu")


def test_gpu_is_faster_than_cpu_everywhere():
    for cpu_ms, gpu_ms in TABLE7_MEASURED_MS.values():
        assert gpu_ms < cpu_ms


@pytest.mark.parametrize("key", list(TABLE7_MEASURED_MS))
def test_model_within_2x_of_measured(key):
    """The calibration contract: every modeled latency is within 2x."""
    workload = benchmark_workload(benchmark_by_key(key))
    modeled = [estimate_latency_ms(workload, machine)
               for machine in (CPU_MACHINE, GPU_MACHINE)]
    for modeled_ms, measured_ms in zip(modeled, TABLE7_MEASURED_MS[key]):
        assert 0.5 <= modeled_ms / measured_ms <= 2.0
