"""Unit tests for the torus and ring fabrics.

The mesh has its own suite (test_topology.py); this file covers the wrap
fabrics' construction, escape-class counts, region arcs and placement
sites, plus topology selection through NocConfig. Wrap links, modular
distances and dateline escape classes are held to a brute-force oracle on
every fabric by ``tests/property/test_topology_props.py``.
"""

import pytest

from repro.noc.config import NocConfig
from repro.noc.topology import (
    _TOPOLOGY_CLASSES,
    TOPOLOGY_KINDS,
    MeshTopology,
    RingTopology,
    TorusTopology,
    band_index,
    make_topology,
    num_escape_classes_for,
)
from repro.util.errors import ConfigError


class TestTorus:
    def test_needs_two_escape_classes(self):
        assert TorusTopology.num_escape_classes == 2
        assert num_escape_classes_for("torus") == 2

    def test_mesh_calibrated_loads_not_derated(self):
        assert TorusTopology(8, 8).saturation_scale == 1.0


class TestRing:
    def test_is_a_flat_grid(self):
        topo = RingTopology(8)
        assert (topo.width, topo.height) == (8, 1)
        assert topo.coords(5) == (5, 0)
        assert topo.node_at(5, 0) == 5

    def test_rejects_tiny_rings(self):
        with pytest.raises(ConfigError):
            RingTopology(3)

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

    def test_neighbor_table_is_cycle(self):
        ring = RingTopology(8)
        links = {
            frozenset((node, nb))
            for node, row in enumerate(ring.neighbor)
            for nb in row
            if nb >= 0
        }
        assert ring.num_nodes == len(ring.neighbor) == 8
        assert len(links) == 8
        # Each node links to both ring neighbours, so the links close one cycle.
        assert links == {frozenset((n, (n + 1) % 8)) for n in range(8)}


class TestBandIndex:
    def test_even_split(self):
        assert band_index(8, 2) == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_uneven_split_balances(self):
        bands = band_index(8, 3)
        sizes = [bands.count(b) for b in range(3)]
        assert sorted(sizes) == [2, 3, 3]
        assert bands == sorted(bands)


class TestSelection:
    def test_make_topology_from_config(self):
        assert isinstance(make_topology(NocConfig()), MeshTopology)
        cfg = NocConfig(topology="torus", width=4, height=4)
        assert isinstance(make_topology(cfg), TorusTopology)
        ring = make_topology(NocConfig(topology="ring", width=4, height=4))
        assert isinstance(ring, RingTopology)
        assert ring.num_nodes == 16  # extents fold into one loop


class TestNocConfigTopology:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            NocConfig(topology="hypercube")
        with pytest.raises(ConfigError):
            num_escape_classes_for("hypercube")

    def test_wrap_fabrics_need_dateline_escape_vcs(self):
        # The fabric fixes the escape VCs: one per dateline class.
        for kind in TOPOLOGY_KINDS:
            classes = _TOPOLOGY_CLASSES[kind].num_escape_classes
            assert NocConfig(topology=kind).escape_vcs == classes

    def test_describe_names_the_fabric(self):
        assert "8x8 mesh" in NocConfig().describe()
        assert "8x8 torus" in NocConfig(topology="torus").describe()
        assert "64-node ring" in NocConfig(topology="ring").describe()
