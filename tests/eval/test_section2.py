"""Tests for the Section II study (Table II, Figure 2)."""

import pytest

from repro.eval.section2 import (
    SECTION2_GRAPHS,
    TABLE2_PAPER_MS,
    figure2,
    section2_row,
    table2,
)


@pytest.fixture(scope="module")
def rows():
    return table2()


def test_three_graphs(rows):
    assert [r.graph for r in rows] == ["Cora", "Citeseer", "Pubmed"]


def test_limited_bandwidth_is_slower(rows):
    for row in rows:
        assert row.limited_ms > row.unlimited_ms


def test_latency_ordering_matches_paper(rows):
    # Table II: Cora < Citeseer << Pubmed in both bandwidth regimes.
    unlimited = [r.unlimited_ms for r in rows]
    limited = [r.limited_ms for r in rows]
    assert unlimited == sorted(unlimited)
    assert limited == sorted(limited)
    assert unlimited[2] > 10 * unlimited[1]


def test_within_2x_of_paper(rows):
    for row, name in zip(rows, SECTION2_GRAPHS):
        paper_unlimited, paper_limited = TABLE2_PAPER_MS[name]
        assert 0.5 <= row.unlimited_ms / paper_unlimited <= 2.0
        assert 0.5 <= row.limited_ms / paper_limited <= 2.0


def test_pubmed_waste_matches_paper(rows):
    # Section II: "only 1% of the memory requests and 2% of the compute
    # are useful" for Pubmed.
    pubmed = rows[2]
    assert pubmed.useful_traffic_fraction < 0.05
    assert pubmed.useful_compute_fraction < 0.05


def test_waste_grows_with_sparsity(rows):
    # Pubmed (sparsest) wastes the most of both resources.
    cora, citeseer, pubmed = rows
    assert pubmed.useful_compute_fraction < cora.useful_compute_fraction
    assert pubmed.useful_compute_fraction < citeseer.useful_compute_fraction
    assert pubmed.useful_traffic_fraction < cora.useful_traffic_fraction


def test_useful_metrics_bounded(rows):
    for row in rows:
        assert 0 < row.useful_pe_utilization <= row.pe_utilization <= 1
        assert 0 < row.useful_bandwidth_gbps <= row.required_bandwidth_gbps


def test_required_bandwidth_exceeds_dram(rows):
    # The motivation for Table II's bandwidth-limited column: the dense
    # mapping wants more than 68 GBps.
    for row in rows:
        assert row.required_bandwidth_gbps > 68.0


@pytest.mark.parametrize("name", SECTION2_GRAPHS)
def test_bandwidth_limited_column_is_the_eyeriss_report(rows, name):
    """Section II and the ``eyeriss`` system lower GCN the same way, so
    Table II's 68 GBps column is that system's report, bit for bit."""
    from repro.systems import run_system

    row = rows[SECTION2_GRAPHS.index(name)]
    report = run_system("eyeriss", f"gcn-{name}", cache=None)
    assert row.limited_ms == report.latency_ms
    assert row.useful_compute_fraction == (
        report.breakdown["useful_compute_fraction"]
    )


def test_figure2_reuses_table2():
    assert figure2()[0] == table2()[0]


def test_clock_scales_latency():
    fast = section2_row("cora", freq_ghz=2.4)
    slow = section2_row("cora", freq_ghz=1.2)
    assert slow.unlimited_ms == pytest.approx(2 * fast.unlimited_ms)
