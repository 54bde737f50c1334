"""Unit tests for the mesh topology."""

import pytest

from repro.noc.topology import (
    EAST,
    LOCAL,
    NORTH,
    NUM_PORTS,
    OPPOSITE,
    SOUTH,
    WEST,
    MeshTopology,
)
from repro.util.errors import ConfigError


class TestConstruction:
    def test_node_count(self):
        assert MeshTopology(8, 8).num_nodes == 64
        assert MeshTopology(3, 5).num_nodes == 15

    def test_rejects_degenerate_meshes(self):
        with pytest.raises(ConfigError):
            MeshTopology(1, 8)
        with pytest.raises(ConfigError):
            MeshTopology(8, 0)

    def test_coords_roundtrip(self):
        topo = MeshTopology(5, 3)
        for node in range(topo.num_nodes):
            x, y = topo.coords(node)
            assert topo.node_at(x, y) == node

    def test_node_at_bounds_checked(self):
        topo = MeshTopology(4, 4)
        with pytest.raises(ConfigError):
            topo.node_at(4, 0)
        with pytest.raises(ConfigError):
            topo.node_at(0, -1)


class TestNeighbors:
    def test_interior_node_has_four_neighbors(self):
        topo = MeshTopology(4, 4)
        node = topo.node_at(1, 1)
        nbrs = topo.neighbor[node]
        assert nbrs[NORTH] == topo.node_at(1, 0)
        assert nbrs[SOUTH] == topo.node_at(1, 2)
        assert nbrs[EAST] == topo.node_at(2, 1)
        assert nbrs[WEST] == topo.node_at(0, 1)
        assert nbrs[LOCAL] == -1

    def test_corner_edges(self):
        topo = MeshTopology(4, 4)
        nw = topo.node_at(0, 0)
        assert topo.neighbor[nw][NORTH] == -1
        assert topo.neighbor[nw][WEST] == -1
        assert topo.neighbor[nw][EAST] == topo.node_at(1, 0)
        assert topo.neighbor[nw][SOUTH] == topo.node_at(0, 1)

    def test_opposite_is_involution_on_directions(self):
        for port in (NORTH, EAST, SOUTH, WEST):
            assert OPPOSITE[OPPOSITE[port]] == port

    def test_links_are_symmetric(self):
        topo = MeshTopology(5, 4)
        for node in range(topo.num_nodes):
            for port in (NORTH, EAST, SOUTH, WEST):
                nbr = topo.neighbor[node][port]
                if nbr >= 0:
                    assert topo.neighbor[nbr][OPPOSITE[port]] == node


class TestRoutingHelpers:
    def test_hop_distance(self):
        topo = MeshTopology(8, 8)
        assert topo.hop_distance(0, 0) == 0
        assert topo.hop_distance(topo.node_at(0, 0), topo.node_at(7, 7)) == 14
        assert topo.hop_distance(topo.node_at(2, 3), topo.node_at(5, 1)) == 5

    def test_minimal_ports_local_at_destination(self):
        topo = MeshTopology(4, 4)
        assert topo.minimal_ports(5, 5) == (LOCAL,)

    def test_minimal_ports_single_dimension(self):
        topo = MeshTopology(4, 4)
        src = topo.node_at(0, 2)
        dst = topo.node_at(3, 2)
        assert topo.minimal_ports(src, dst) == (EAST,)

    def test_minimal_ports_two_dimensions(self):
        topo = MeshTopology(4, 4)
        src = topo.node_at(1, 1)
        dst = topo.node_at(3, 3)
        assert set(topo.minimal_ports(src, dst)) == {EAST, SOUTH}

    def test_dimension_order_port_goes_x_first(self):
        topo = MeshTopology(4, 4)
        src = topo.node_at(1, 1)
        assert topo.dimension_order_port(src, topo.node_at(3, 3)) == EAST
        assert topo.dimension_order_port(src, topo.node_at(1, 3)) == SOUTH
        assert topo.dimension_order_port(src, topo.node_at(0, 0)) == WEST
        assert topo.dimension_order_port(src, src) == LOCAL

    def test_xy_route_reaches_destination(self):
        topo = MeshTopology(6, 5)
        for src in range(topo.num_nodes):
            for dst in (0, 13, topo.num_nodes - 1):
                cur, hops = src, 0
                while cur != dst:
                    port = topo.dimension_order_port(cur, dst)
                    cur = topo.neighbor[cur][port]
                    hops += 1
                    assert hops <= topo.hop_distance(src, dst)
                assert hops == topo.hop_distance(src, dst)

    def test_path_nodes_stops_at_edge(self):
        topo = MeshTopology(4, 4)
        src = topo.node_at(2, 0)
        assert topo.path_nodes(src, EAST, 10) == [topo.node_at(3, 0)]

    def test_path_nodes_counts_steps(self):
        topo = MeshTopology(8, 8)
        src = topo.node_at(1, 4)
        path = topo.path_nodes(src, EAST, 3)
        assert path == [topo.node_at(2, 4), topo.node_at(3, 4), topo.node_at(4, 4)]


class TestExports:
    def test_corner_nodes(self):
        topo = MeshTopology(8, 8)
        assert topo.corner_nodes() == (0, 7, 56, 63)

    def test_networkx_export_is_grid(self):
        nx = pytest.importorskip("networkx")
        topo = MeshTopology(4, 5)
        g = topo.to_networkx()
        assert g.number_of_nodes() == 20
        assert g.number_of_edges() == 4 * 4 + 3 * 5  # vertical + horizontal
        assert nx.is_connected(g)
        # Mesh diameter equals Manhattan diameter.
        assert nx.diameter(g) == (4 - 1) + (5 - 1)

    def test_port_count(self):
        assert NUM_PORTS == 5
