"""Tests for the torus topology extension."""

import pytest
from hypothesis import given, strategies as st

from repro.noc import Mesh, NocConfig, PacketNetwork, Torus


class TestRouting:
    def test_short_way_around(self):
        torus = Torus(8, 1)
        # 0 -> 7 is one wraparound hop, not seven mesh hops.
        links = torus.route_links((0, 0), (7, 0))
        assert links == [((0, 0), (7, 0))]

    def test_interior_routes_match_mesh(self):
        torus, mesh = Torus(8, 8), Mesh(8, 8)
        assert torus.route_links((1, 1), (3, 2)) == mesh.route_links(
            (1, 1), (3, 2)
        )

    def test_route_is_connected(self):
        torus = Torus(5, 4)
        links = torus.route_links((0, 0), (3, 3))
        assert links[0][0] == (0, 0)
        assert links[-1][1] == (3, 3)
        for (a, b), (c, d) in zip(links, links[1:]):
            assert b == c

    def test_self_route_empty(self):
        assert Torus(4, 4).route_links((2, 2), (2, 2)) == []

    @given(
        st.integers(0, 5), st.integers(0, 5),
        st.integers(0, 5), st.integers(0, 5),
    )
    def test_never_longer_than_mesh(self, sx, sy, dx, dy):
        torus, mesh = Torus(6, 6), Mesh(6, 6)
        assert len(torus.route_links((sx, sy), (dx, dy))) <= len(
            mesh.route_links((sx, sy), (dx, dy))
        )

    @given(
        st.integers(0, 5), st.integers(0, 5),
        st.integers(0, 5), st.integers(0, 5),
    )
    def test_diameter_bound(self, sx, sy, dx, dy):
        # Torus diameter: floor(w/2) + floor(h/2).
        torus = Torus(6, 6)
        assert len(torus.route_links((sx, sy), (dx, dy))) <= 6


class TestNeighbors:
    def test_corner_has_four_neighbors(self):
        assert len(Torus(4, 4).neighbors((0, 0))) == 4

    def test_wraparound_neighbors(self):
        neighbors = Torus(4, 4).neighbors((0, 0))
        assert (3, 0) in neighbors
        assert (0, 3) in neighbors


class TestPacketNetworkOnTorus:
    def test_wraparound_is_faster(self):
        config = NocConfig()
        mesh_net = PacketNetwork(Mesh(8, 1), config)
        torus_net = PacketNetwork(Torus(8, 1), config)
        mesh_arrival = mesh_net.delivery_time((0, 0), (7, 0), 64, 0.0)
        torus_arrival = torus_net.delivery_time((0, 0), (7, 0), 64, 0.0)
        assert torus_arrival < mesh_arrival / 3

    def test_hop_stats_use_actual_route(self):
        net = PacketNetwork(Torus(8, 1))
        net.delivery_time((0, 0), (7, 0), 64, 0.0)
        assert net.stats.get("flit_hops") == 1

    def test_wraparound_link_can_be_wedged(self):
        torus_net = PacketNetwork(Torus(8, 1))
        torus_net.reserve_link((0, 0), (7, 0), 0.0, 1000.0)
        assert torus_net.delivery_time((0, 0), (7, 0), 64, 0.0) >= 1000.0
        with pytest.raises(ValueError, match="not a link"):
            PacketNetwork(Mesh(8, 1)).reserve_link((0, 0), (7, 0), 0.0, 1.0)

    def test_mean_latency_improves_under_uniform_traffic(self):
        config = NocConfig()
        nodes = Mesh(6, 6).nodes()
        pairs = [
            (nodes[i], nodes[(i + 13) % len(nodes)]) for i in range(36)
        ]
        mesh_net = PacketNetwork(Mesh(6, 6), config)
        torus_net = PacketNetwork(Torus(6, 6), config)
        mesh_total = sum(
            mesh_net.delivery_time(s, d, 128, 10.0 * i) - 10.0 * i
            for i, (s, d) in enumerate(pairs)
        )
        torus_total = sum(
            torus_net.delivery_time(s, d, 128, 10.0 * i) - 10.0 * i
            for i, (s, d) in enumerate(pairs)
        )
        assert torus_total < mesh_total


def test_invalid_dimensions_rejected():
    with pytest.raises(ValueError):
        Torus(0, 3)
