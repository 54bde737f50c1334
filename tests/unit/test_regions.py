"""Unit tests for region maps."""

import pytest

from repro.core.regions import RegionMap
from repro.noc.topology import MeshTopology
from repro.util.errors import ConfigError


@pytest.fixture
def topo8():
    return MeshTopology(8, 8)


class TestConstruction:
    def test_length_checked(self, topo8):
        with pytest.raises(ConfigError):
            RegionMap(topo8, [0] * 63)

    def test_negative_app_rejected(self, topo8):
        assign = [0] * 64
        assign[5] = -2
        with pytest.raises(ConfigError):
            RegionMap(topo8, assign)

    def test_unassigned_allowed(self, topo8):
        assign = [0] * 64
        assign[5] = -1
        rm = RegionMap(topo8, assign)
        assert rm.app_of(5) == -1
        assert rm.num_apps == 1


class TestBuilders:
    def test_single(self, topo8):
        rm = RegionMap.single(topo8)
        assert rm.num_apps == 1
        assert len(rm.nodes_of(0)) == 64

    def test_halves_vertical(self, topo8):
        rm = RegionMap.halves(topo8)
        assert rm.num_apps == 2
        assert len(rm.nodes_of(0)) == len(rm.nodes_of(1)) == 32
        for node in rm.nodes_of(0):
            assert topo8.coords(node)[0] < 4
        for node in rm.nodes_of(1):
            assert topo8.coords(node)[0] >= 4

    def test_halves_horizontal(self, topo8):
        rm = RegionMap.halves(topo8, vertical=False)
        for node in rm.nodes_of(0):
            assert topo8.coords(node)[1] < 4

    def test_quadrants(self, topo8):
        rm = RegionMap.quadrants(topo8)
        assert rm.num_apps == 4
        assert all(len(rm.nodes_of(a)) == 16 for a in range(4))
        # Numbering: 0 NW, 1 NE, 2 SW, 3 SE.
        assert rm.app_of(topo8.node_at(0, 0)) == 0
        assert rm.app_of(topo8.node_at(7, 0)) == 1
        assert rm.app_of(topo8.node_at(0, 7)) == 2
        assert rm.app_of(topo8.node_at(7, 7)) == 3

    def test_grid_3x2_region_sizes(self, topo8):
        rm = RegionMap.grid(topo8, 3, 2)
        sizes = sorted(len(rm.nodes_of(a)) for a in range(6))
        assert sizes == [8, 8, 12, 12, 12, 12]
        assert rm.num_apps == 6

    def test_grid_regions_are_contiguous_rectangles(self, topo8):
        rm = RegionMap.grid(topo8, 3, 2)
        for app in range(6):
            xs = sorted({topo8.coords(n)[0] for n in rm.nodes_of(app)})
            ys = sorted({topo8.coords(n)[1] for n in rm.nodes_of(app)})
            assert xs == list(range(xs[0], xs[-1] + 1))
            assert ys == list(range(ys[0], ys[-1] + 1))
            assert len(rm.nodes_of(app)) == len(xs) * len(ys)

    def test_grid_rejects_oversplit(self, topo8):
        with pytest.raises(ConfigError):
            RegionMap.grid(topo8, 9, 1)


class TestQueries:
    def test_is_global_pair(self, topo8):
        rm = RegionMap.halves(topo8)
        left, right = rm.nodes_of(0)[0], rm.nodes_of(1)[0]
        assert rm.is_global_pair(left, right)
        assert not rm.is_global_pair(left, rm.nodes_of(0)[1])

    def test_equality_and_hash(self, topo8):
        a = RegionMap.halves(topo8)
        b = RegionMap.halves(topo8)
        assert a == b
        assert hash(a) == hash(b)
        assert a != RegionMap.quadrants(topo8)
