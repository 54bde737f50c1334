"""Unit tests for the ASCII visualization helpers."""

import pytest

from repro import RegionMap, build_simulation
from repro.noc.config import NocConfig
from repro.noc.flit import Packet
from repro.noc.topology import MeshTopology
from repro.noc.visualize import (
    latency_histogram,
    render_link_utilization,
    render_occupancy,
    render_regions,
)


@pytest.fixture
def small_net():
    cfg = NocConfig(width=4, height=4)
    sim, net = build_simulation(cfg)
    return sim, net


class TestRenderRegions:
    def test_grid_shape(self):
        topo = MeshTopology(4, 4)
        text = render_regions(RegionMap.quadrants(topo))
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].split() == ["0", "0", "1", "1"]
        assert lines[3].split() == ["2", "2", "3", "3"]

    def test_unassigned_rendered_as_dot(self):
        topo = MeshTopology(4, 4)
        rm = RegionMap.from_rects(topo, [(0, 0, 4, 2)], allow_unassigned=True)
        text = render_regions(rm)
        assert "." in text


class TestRenderOccupancy:
    def test_idle_network_renders_blanks(self, small_net):
        _, net = small_net
        text = render_occupancy(net)
        assert "buffer occupancy" in text
        assert "@" not in text

    def test_busy_router_darkens(self, small_net):
        sim, net = small_net
        for _ in range(4):
            net.inject(Packet(src=5, dst=6, length=5, inject_cycle=0))
        sim.run(3)
        assert any(ch in render_occupancy(net) for ch in "#%@=+*")


class TestLinkUtilization:
    def test_counts_flits(self, small_net):
        sim, net = small_net
        net.inject(Packet(src=0, dst=3, length=5, inject_cycle=0))
        sim.run_until_drained(500)
        text = render_link_utilization(net, cycles=sim.cycle)
        assert "link utilization" in text
        # The east links on row 0 carried the 5 flits.
        flits = net.link_flit_counts()
        assert flits[0][2] == 5  # node 0, EAST
        assert flits[1][2] == 5
        assert flits[2][2] == 5

    def test_requires_positive_cycles(self, small_net):
        _, net = small_net
        with pytest.raises(ValueError):
            render_link_utilization(net, cycles=0)


class TestLatencyHistogram:
    def test_empty(self):
        assert latency_histogram([]) == "(no samples)"

    def test_counts_and_stats_line(self):
        text = latency_histogram([10, 20, 20, 30], bins=2, width=10)
        assert "n=4" in text
        assert "mean=20.0" in text
        total = sum(
            int(line.rsplit(" ", 1)[-1]) for line in text.splitlines()[:-1]
        )
        assert total == 4
