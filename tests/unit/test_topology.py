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

    def test_neighbor_table_is_grid(self):
        topo = MeshTopology(4, 5)
        links = {
            frozenset((node, nb))
            for node, row in enumerate(topo.neighbor)
            for nb in row
            if nb >= 0
        }
        assert topo.num_nodes == len(topo.neighbor) == 20
        assert len(links) == 4 * 4 + 3 * 5  # vertical + horizontal
        reached = {0}
        for _ in range(topo.num_nodes):  # connected: every node within reach
            reached |= {nb for node in reached for nb in topo.neighbor[node] if nb >= 0}
        assert reached == set(range(20))
        # Mesh diameter equals Manhattan diameter.
        assert max(topo.hop_distance(a, b) for a in range(20) for b in range(20)) == (
            (4 - 1) + (5 - 1)
        )

    def test_port_count(self):
        assert NUM_PORTS == 5
