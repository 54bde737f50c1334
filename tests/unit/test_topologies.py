"""Unit tests for the torus and ring fabrics.

The mesh has its own suite (test_topology.py); this file covers the wrap
fabrics — wrap links, modular distances, dateline escape classes, region
arcs — plus topology selection through NocConfig and the deprecated
module-level mesh constants.
"""

import pytest

from repro.noc.config import NocConfig
from repro.noc.topology import (
    EAST,
    LOCAL,
    NORTH,
    RING_CCW,
    RING_CW,
    SOUTH,
    WEST,
    MeshTopology,
    RingTopology,
    TorusTopology,
    band_index,
    build_topology,
    make_topology,
    num_escape_classes_for,
)
from repro.util.errors import ConfigError


class TestTorus:
    def test_wrap_neighbors(self):
        topo = TorusTopology(4, 4)
        nw = topo.node_at(0, 0)
        assert topo.neighbor[nw][WEST] == topo.node_at(3, 0)
        assert topo.neighbor[nw][NORTH] == topo.node_at(0, 3)
        se = topo.node_at(3, 3)
        assert topo.neighbor[se][EAST] == topo.node_at(0, 3)
        assert topo.neighbor[se][SOUTH] == topo.node_at(3, 0)

    def test_modular_hop_distance(self):
        topo = TorusTopology(8, 8)
        assert topo.hop_distance(topo.node_at(0, 0), topo.node_at(7, 7)) == 2
        assert topo.hop_distance(topo.node_at(0, 0), topo.node_at(4, 4)) == 8
        assert topo.hop_distance(5, 5) == 0

    def test_minimal_ports_take_the_short_way_around(self):
        topo = TorusTopology(8, 8)
        src = topo.node_at(0, 0)
        assert topo.minimal_ports(src, topo.node_at(2, 0)) == (EAST,)
        assert topo.minimal_ports(src, topo.node_at(6, 0)) == (WEST,)
        assert topo.minimal_ports(src, src) == (LOCAL,)

    def test_minimal_ports_antipodal_gives_both_directions(self):
        topo = TorusTopology(8, 8)
        src = topo.node_at(0, 0)
        assert topo.minimal_ports(src, topo.node_at(4, 0)) == (EAST, WEST)
        assert topo.minimal_ports(src, topo.node_at(0, 4)) == (SOUTH, NORTH)

    def test_dimension_order_is_x_first_minimal(self):
        topo = TorusTopology(8, 8)
        src = topo.node_at(0, 0)
        assert topo.dimension_order_port(src, topo.node_at(7, 7)) == WEST
        assert topo.dimension_order_port(src, topo.node_at(0, 7)) == NORTH
        assert topo.dimension_order_port(src, topo.node_at(2, 2)) == EAST

    def test_escape_class_dateline(self):
        topo = TorusTopology(8, 8)
        # Travelling east 1 -> 3 never needs the wrap link: class 0.
        assert topo.escape_class(topo.node_at(1, 0), topo.node_at(3, 0)) == 0
        # Travelling east 7 -> 1 is on the far side of the dateline until
        # the wrap hop: class 1 at x=7, class 0 once it lands at x=0.
        assert topo.escape_class(topo.node_at(7, 0), topo.node_at(1, 0)) == 1
        assert topo.escape_class(topo.node_at(0, 0), topo.node_at(1, 0)) == 0
        # Symmetric for the Y dimension.
        assert topo.escape_class(topo.node_at(0, 7), topo.node_at(0, 1)) == 1
        assert topo.escape_class(topo.node_at(0, 0), topo.node_at(0, 1)) == 0

    def test_escape_walk_is_minimal_for_every_pair(self):
        topo = TorusTopology(6, 4)
        for src in range(topo.num_nodes):
            for dst in range(topo.num_nodes):
                cur, hops = src, 0
                while cur != dst:
                    cur = topo.neighbor[cur][topo.dimension_order_port(cur, dst)]
                    hops += 1
                assert hops == topo.hop_distance(src, dst)

    def test_steps_to_is_modular(self):
        topo = TorusTopology(8, 8)
        src = topo.node_at(7, 0)
        assert topo.steps_to(src, topo.node_at(1, 0), EAST) == 2
        assert topo.steps_to(src, topo.node_at(1, 0), WEST) == 6

    def test_needs_two_escape_classes(self):
        assert TorusTopology.num_escape_classes == 2
        assert num_escape_classes_for("torus") == 2

    def test_mesh_calibrated_loads_not_derated(self):
        assert TorusTopology(8, 8).saturation_scale == 1.0


class TestRing:
    def test_neighbors_wrap(self):
        topo = RingTopology(8)
        assert topo.neighbor[0] == (-1, 1, 7)
        assert topo.neighbor[7] == (-1, 0, 6)

    def test_is_a_flat_grid(self):
        topo = RingTopology(8)
        assert (topo.width, topo.height) == (8, 1)
        assert topo.coords(5) == (5, 0)
        assert topo.node_at(5, 0) == 5

    def test_rejects_tiny_rings(self):
        with pytest.raises(ConfigError):
            RingTopology(3)

    def test_minimal_ports(self):
        topo = RingTopology(8)
        assert topo.minimal_ports(0, 3) == (RING_CW,)
        assert topo.minimal_ports(0, 6) == (RING_CCW,)
        assert topo.minimal_ports(0, 4) == (RING_CW, RING_CCW)
        assert topo.minimal_ports(2, 2) == (LOCAL,)

    def test_dimension_order_tie_prefers_clockwise(self):
        topo = RingTopology(8)
        assert topo.dimension_order_port(0, 4) == RING_CW
        assert topo.dimension_order_port(0, 5) == RING_CCW

    def test_escape_class_dateline(self):
        topo = RingTopology(8)
        # Clockwise 6 -> 1 crosses the wrap edge at node 7 -> 0: class 1
        # before it, class 0 after.
        assert topo.escape_class(6, 1) == 1
        assert topo.escape_class(0, 1) == 0
        # Clockwise 1 -> 3 never wraps.
        assert topo.escape_class(1, 3) == 0

    def test_escape_walk_is_minimal_for_every_pair(self):
        topo = RingTopology(9)
        for src in range(topo.num_nodes):
            for dst in range(topo.num_nodes):
                cur, hops = src, 0
                while cur != dst:
                    cur = topo.neighbor[cur][topo.dimension_order_port(cur, dst)]
                    hops += 1
                assert hops == topo.hop_distance(src, dst)

    def test_steps_to(self):
        topo = RingTopology(8)
        assert topo.steps_to(0, 5, RING_CW) == 5
        assert topo.steps_to(0, 5, RING_CCW) == 3
        assert topo.steps_to(0, 5, LOCAL) == 0

    def test_region_grid_gives_contiguous_arcs(self):
        topo = RingTopology(8)
        assert topo.region_grid(2, 2) == [0, 0, 1, 1, 2, 2, 3, 3]
        with pytest.raises(ConfigError):
            RingTopology(4).region_grid(5, 1)

    def test_corner_and_center_sites(self):
        topo = RingTopology(8)
        assert topo.corner_nodes() == (0, 2, 4, 6)
        assert topo.center_nodes() == (3, 4, 5, 6)

    def test_saturation_scale_derates_by_bisection(self):
        assert RingTopology(64).saturation_scale == 0.25
        assert RingTopology(4).saturation_scale == 1.0

    def test_networkx_export_is_cycle(self):
        nx = pytest.importorskip("networkx")
        g = RingTopology(8).to_networkx()
        assert g.number_of_nodes() == 8
        assert g.number_of_edges() == 8
        assert nx.is_connected(g)


class TestBandIndex:
    def test_even_split(self):
        assert band_index(8, 2) == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_uneven_split_balances(self):
        bands = band_index(8, 3)
        sizes = [bands.count(b) for b in range(3)]
        assert sorted(sizes) == [2, 3, 3]
        assert bands == sorted(bands)


class TestSelection:
    def test_build_topology_by_kind(self):
        assert isinstance(build_topology("mesh", 4, 4), MeshTopology)
        assert isinstance(build_topology("torus", 4, 4), TorusTopology)
        ring = build_topology("ring", 4, 4)
        assert isinstance(ring, RingTopology)
        assert ring.num_nodes == 16  # extents fold into one loop

    def test_build_topology_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_topology("hypercube", 4, 4)
        with pytest.raises(ConfigError):
            num_escape_classes_for("hypercube")

    def test_make_topology_from_config(self):
        assert isinstance(make_topology(NocConfig()), MeshTopology)
        cfg = NocConfig.for_topology("torus", width=4, height=4)
        assert isinstance(make_topology(cfg), TorusTopology)


class TestNocConfigTopology:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            NocConfig(topology="hypercube")

    def test_wrap_fabrics_need_dateline_escape_vcs(self):
        with pytest.raises(ConfigError):
            NocConfig(topology="torus")  # default escape_vcs=1 < 2 classes
        cfg = NocConfig.for_topology("torus")
        assert cfg.escape_vcs == 2

    def test_for_topology_respects_explicit_escape_vcs(self):
        cfg = NocConfig.for_topology("ring", escape_vcs=3)
        assert cfg.escape_vcs == 3

    def test_for_topology_mesh_is_default_config(self):
        assert NocConfig.for_topology("mesh") == NocConfig()

    def test_describe_names_the_fabric(self):
        assert "8x8 mesh" in NocConfig().describe()
        assert "8x8 torus" in NocConfig.for_topology("torus").describe()
        assert "64-node ring" in NocConfig.for_topology("ring").describe()
