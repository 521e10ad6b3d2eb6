"""Tests for the energy evaluation driver."""

import pytest

from repro.eval.energy import energy_table

pytestmark = pytest.mark.slow  # simulates all six benchmarks, incl. MPNN


@pytest.fixture(scope="module")
def rows():
    return energy_table("CPU iso-BW", 2.4)


def test_one_row_per_benchmark(rows):
    assert [r.benchmark for r in rows] == [
        "gcn-cora", "gcn-citeseer", "gcn-pubmed",
        "gat-cora", "mpnn-qm9_1000", "pgnn-dblp_1",
    ]


def test_accelerator_energy_positive(rows):
    for row in rows:
        assert row.accel_uj > 0
        assert row.breakdown.total_uj == pytest.approx(row.accel_uj)


def test_energy_advantage_everywhere(rows):
    # Even PGNN, which loses on latency, wins on energy.
    for row in rows:
        assert row.vs_cpu > 10
        assert row.vs_gpu > 10


def test_gcn_is_dram_dominated(rows):
    by_key = {r.benchmark: r for r in rows}
    assert by_key["gcn-cora"].dominant == "dram"


def test_mpnn_is_dram_dominated_too(rows):
    # Its per-step re-reads of the edge matrices cost more energy than
    # the 18 GMAC of compute they feed.
    by_key = {r.benchmark: r for r in rows}
    assert by_key["mpnn-qm9_1000"].dominant == "dram"


def test_mpnn_spends_a_larger_share_on_the_dna(rows):
    by_key = {r.benchmark: r for r in rows}
    mpnn = by_key["mpnn-qm9_1000"].breakdown
    gcn = by_key["gcn-cora"].breakdown
    assert mpnn.dna_uj / mpnn.total_uj > 1.5 * gcn.dna_uj / gcn.total_uj


def test_pgnn_spends_on_the_gpe(rows):
    by_key = {r.benchmark: r for r in rows}
    pgnn = by_key["pgnn-dblp_1"].breakdown
    # Traversal sequencing instructions are a first-order energy term
    # only for PGNN.
    assert pgnn.gpe_uj > 0.2 * pgnn.total_uj


def test_results_cached(rows):
    assert energy_table("CPU iso-BW", 2.4) is energy_table("CPU iso-BW", 2.4)


def test_unknown_config_rejected():
    with pytest.raises(KeyError):
        energy_table("Quantum iso-qubit", 2.4)
