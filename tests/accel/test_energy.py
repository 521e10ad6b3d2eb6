"""Tests for the energy extension."""

import numpy as np
import pytest

from repro.accel import (
    CPU_ISO_BW,
    Accelerator,
    EnergyModel,
    EnergyReport,
    baseline_energy_uj,
    energy_efficiency,
    estimate_energy,
)
from repro.graphs import citation_graph
from repro.models import GCN
from repro.runtime import RuntimeEngine, compile_model


@pytest.fixture(scope="module")
def run():
    graph = citation_graph(60, 150, seed=4)
    graph.node_features = np.zeros((60, 24), dtype=np.float32)
    program = compile_model(GCN(24, 8, 4), graph)
    accel = Accelerator(CPU_ISO_BW)
    return RuntimeEngine(accel).run(program), accel


class TestEstimate:
    def test_all_components_positive(self, run):
        _, accel = run
        energy = estimate_energy(accel)
        assert energy.dna_uj > 0
        assert energy.agg_uj > 0
        assert energy.gpe_uj > 0
        assert energy.dram_uj > 0
        assert energy.noc_uj > 0

    def test_total_sums_components(self, run):
        _, accel = run
        energy = estimate_energy(accel)
        total = (
            energy.dna_uj + energy.agg_uj + energy.gpe_uj
            + energy.dram_uj + energy.noc_uj + energy.scratchpad_uj
        )
        assert energy.total_uj == pytest.approx(total)

    def test_dominant_component(self, run):
        _, accel = run
        energy = estimate_energy(accel)
        name = energy.dominant_component()
        assert getattr(energy, f"{name}_uj") == pytest.approx(
            max(energy.dna_uj, energy.agg_uj, energy.gpe_uj,
                energy.dram_uj, energy.noc_uj, energy.scratchpad_uj)
        )

    def test_costs_scale_linearly(self, run):
        _, accel = run
        base = estimate_energy(accel)
        doubled = estimate_energy(accel, EnergyModel(dram_byte_pj=120.0))
        assert doubled.dram_uj == pytest.approx(2 * base.dram_uj)
        assert doubled.dna_uj == pytest.approx(base.dna_uj)

    def test_dram_priced_on_serviced_bytes(self, run):
        _, accel = run
        energy = estimate_energy(accel, EnergyModel(dram_byte_pj=1.0))
        assert energy.dram_uj == pytest.approx(
            accel.total_dram_bytes() * 1e-6
        )


class TestBaselines:
    def test_baseline_energy_watts_times_seconds(self):
        # 120 W for 1 ms = 0.12 J = 120,000 uJ.
        assert baseline_energy_uj(1.0, "cpu") == pytest.approx(120_000.0)

    def test_gpu_board_power(self):
        assert baseline_energy_uj(2.0, "gpu") == pytest.approx(500_000.0)

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            baseline_energy_uj(1.0, "fpga")

    def test_efficiency_ratio(self, run):
        report, accel = run
        energy = estimate_energy(accel)
        ratio = energy_efficiency(report, energy, 3.5, "cpu")
        assert ratio == pytest.approx(
            baseline_energy_uj(3.5, "cpu") / energy.total_uj
        )

    def test_zero_activity_rejected(self, run):
        report, _ = run
        empty = EnergyReport(0, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            energy_efficiency(report, empty, 1.0, "cpu")
