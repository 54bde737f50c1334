"""Unit tests for the mesh topology: construction, sizes, exports.

Neighbours and the routing queries are held to a brute-force oracle on
every fabric by ``tests/property/test_topology_props.py``.
"""

import pytest

from repro.noc.topology import NUM_PORTS, MeshTopology
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
