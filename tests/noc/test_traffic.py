"""Tests for synthetic traffic patterns and load sweeps."""

import numpy as np
import pytest

from repro.eval.report import format_table
from repro.noc import Mesh
from repro.noc.traffic import (
    hotspot,
    load_sweep,
    neighbor,
    run_load_point,
    transpose,
    uniform_random,
)


@pytest.fixture
def mesh():
    return Mesh(4, 4)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestPatterns:
    def test_uniform_never_self(self, mesh, rng):
        for _ in range(50):
            assert uniform_random((1, 1), mesh, rng) != (1, 1)

    def test_uniform_stays_in_mesh(self, mesh, rng):
        for _ in range(50):
            assert mesh.contains(uniform_random((0, 0), mesh, rng))

    def test_hotspot_prefers_centre(self, mesh, rng):
        hits = sum(
            hotspot((0, 0), mesh, rng, fraction=0.8) == (2, 2)
            for _ in range(200)
        )
        assert hits > 100

    def test_transpose_swaps_coordinates(self, mesh, rng):
        assert transpose((3, 1), mesh, rng) == (1, 3)

    def test_transpose_diagonal_redirects(self, mesh, rng):
        # (2, 2) transposes onto itself; the pattern must pick another
        # destination instead of a self-send.
        assert transpose((2, 2), mesh, rng) != (2, 2)

    def test_neighbor_is_one_hop(self, mesh, rng):
        for _ in range(30):
            dst = neighbor((1, 2), mesh, rng)
            assert abs(dst[0] - 1) + abs(dst[1] - 2) == 1


class TestLoadPoints:
    def test_low_load_latency_near_zero_load(self):
        point = run_load_point(
            4, 4, neighbor, injection_rate=0.02,
            warmup_cycles=50, measure_cycles=200,
        )
        # 1 hop * 2 cycles + 2 flits + inject/eject overhead.
        assert point["mean_latency"] < 15

    def test_latency_grows_with_load(self):
        low = run_load_point(
            4, 4, uniform_random, 0.02, warmup_cycles=50,
            measure_cycles=200,
        )
        high = run_load_point(
            4, 4, uniform_random, 0.30, warmup_cycles=50,
            measure_cycles=200,
        )
        assert high["mean_latency"] > low["mean_latency"]

    def test_delivered_tracks_offered_below_saturation(self):
        point = run_load_point(
            4, 4, neighbor, 0.05, warmup_cycles=50, measure_cycles=400,
        )
        assert point["delivered"] == pytest.approx(0.05, rel=0.3)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            run_load_point(4, 4, neighbor, 0.0)

    def test_deterministic_for_seed(self):
        a = run_load_point(3, 3, uniform_random, 0.1, seed=5,
                           warmup_cycles=20, measure_cycles=100)
        b = run_load_point(3, 3, uniform_random, 0.1, seed=5,
                           warmup_cycles=20, measure_cycles=100)
        assert a == b


def test_load_sweep_produces_monotone_curve():
    curve = load_sweep(
        3, 3, uniform_random, rates=(0.02, 0.1, 0.3),
        warmup_cycles=30, measure_cycles=150,
    )
    latencies = [point["mean_latency"] for point in curve]
    assert latencies[0] <= latencies[1] <= latencies[2] * 1.01


def test_load_sweep_on_the_4x4_mesh():
    """The Booksim-style characterization of the flit model: flat latency
    at low load, super-linear growth approaching saturation, delivered
    throughput tracking offered load below it."""
    curve = load_sweep(
        4, 4, uniform_random, rates=(0.02, 0.05, 0.1, 0.2, 0.35),
        warmup_cycles=100, measure_cycles=400,
    )
    print()
    print(format_table(
        ["offered (pkt/node/cyc)", "delivered", "mean latency (cyc)"],
        [(p["offered"], p["delivered"], p["mean_latency"]) for p in curve],
        title="NoC load sweep: uniform random, 4x4 mesh, 128B packets",
    ))
    latencies = [point["mean_latency"] for point in curve]
    assert all(a <= b * 1.05 for a, b in zip(latencies, latencies[1:]))
    assert latencies[0] < 20
    assert latencies[-1] > 3 * latencies[0]
    for point in curve[:2]:
        assert point["delivered"] >= 0.7 * point["offered"]
