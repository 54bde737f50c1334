"""Unit tests for the West-First and Odd-Even turn-model routings."""

import itertools

import numpy as np
import pytest

from repro import build_simulation
from repro.noc.config import NocConfig
from repro.noc.flit import Packet
from repro.noc.topology import EAST, LOCAL, NORTH, SOUTH, WEST, MeshTopology
from repro.routing import OddEvenRouting, WestFirstRouting, make_routing


#: the two turn models, under their short test ids
TURN_MODELS = [pytest.param("west_first", id="wf"), pytest.param("odd_even", id="oe")]


def make_net(routing, width=8, height=8):
    cfg = NocConfig(width=width, height=height)
    _, net = build_simulation(cfg, routing=routing)
    return net


def pkt(src, dst):
    return Packet(src=src, dst=dst, length=1, inject_cycle=0)


def walk_all_choices(net, src, dst, max_paths=4096):
    """Enumerate every path the admissible relation permits (minimal only)."""
    topo = net.topology
    paths = [[src]]
    done = []
    while paths:
        if len(done) + len(paths) > max_paths:
            raise AssertionError("path explosion — relation is not minimal")
        path = paths.pop()
        cur = path[-1]
        if cur == dst:
            done.append(path)
            continue
        p = pkt(src, dst)
        ports = net.routing.admissible_ports(cur, p)
        assert ports, f"no admissible port at {cur} for {src}->{dst}"
        for port in ports:
            nxt = topo.neighbor[cur][port]
            assert nxt >= 0, "admissible port points off the mesh"
            paths.append(path + [nxt])
    return done


class TestFactory:
    def test_names(self):
        assert isinstance(make_routing("west_first"), WestFirstRouting)
        assert isinstance(make_routing("odd_even"), OddEvenRouting)


@pytest.mark.parametrize("name", TURN_MODELS)
class TestMinimalReachability:
    def test_all_pairs_reach_minimally(self, name):
        net = make_net(name, width=5, height=5)
        topo = net.topology
        for src, dst in itertools.product(range(25), repeat=2):
            if src == dst:
                continue
            for path in walk_all_choices(net, src, dst):
                assert len(path) - 1 == topo.hop_distance(src, dst)

    def test_destination_yields_local(self, name):
        net = make_net(name)
        assert net.routing.admissible_ports(9, pkt(9, 9)) == (LOCAL,)

    def test_escape_port_is_admissible(self, name):
        net = make_net(name, width=5, height=5)
        rng = np.random.default_rng(1)
        for _ in range(50):
            src, dst = rng.integers(25, size=2)
            if src == dst:
                continue
            p = pkt(int(src), int(dst))
            assert net.routing.escape_port(p.src, p) in net.routing.admissible_ports(
                p.src, p
            )


class TestWestFirstRules:
    def test_westbound_is_deterministic(self):
        net = make_net("west_first")
        topo = net.topology
        src = topo.node_at(5, 2)
        dst = topo.node_at(1, 6)
        assert net.routing.admissible_ports(src, pkt(src, dst)) == (WEST,)

    def test_no_turn_into_west(self):
        """Once x is aligned, the relation never offers WEST again."""
        net = make_net("west_first")
        topo = net.topology
        src = topo.node_at(5, 2)
        dst = topo.node_at(1, 6)
        aligned = topo.node_at(1, 3)
        ports = net.routing.admissible_ports(aligned, pkt(src, dst))
        assert WEST not in ports
        assert ports == (SOUTH,)

    def test_eastbound_is_adaptive(self):
        net = make_net("west_first")
        topo = net.topology
        src = topo.node_at(1, 1)
        dst = topo.node_at(5, 5)
        assert set(net.routing.admissible_ports(src, pkt(src, dst))) == {EAST, SOUTH}


class TestOddEvenRules:
    def test_no_en_es_turn_possible_in_even_columns(self):
        """Eastbound packets in even non-source columns may not turn vertical."""
        net = make_net("odd_even")
        topo = net.topology
        src = topo.node_at(1, 1)
        dst = topo.node_at(7, 5)
        cur = topo.node_at(4, 1)  # even column, not the source column
        ports = net.routing.admissible_ports(cur, pkt(src, dst))
        assert NORTH not in ports and SOUTH not in ports

    def test_vertical_allowed_in_odd_columns(self):
        net = make_net("odd_even")
        topo = net.topology
        src = topo.node_at(1, 1)
        dst = topo.node_at(7, 5)
        cur = topo.node_at(3, 1)
        ports = net.routing.admissible_ports(cur, pkt(src, dst))
        assert SOUTH in ports

    def test_source_column_turn_exception(self):
        # At the source column no turn is taken, so vertical is allowed
        # even when that column is even.
        net = make_net("odd_even")
        topo = net.topology
        src = topo.node_at(2, 1)
        dst = topo.node_at(7, 5)
        ports = net.routing.admissible_ports(src, pkt(src, dst))
        assert SOUTH in ports

    def test_must_leave_east_before_even_destination_column(self):
        # Immediately west of an even destination column with rows left to
        # cover, continuing east would strand the packet (NW/SW into odd
        # columns only): EAST must be withheld.
        net = make_net("odd_even")
        topo = net.topology
        src = topo.node_at(0, 0)
        dst = topo.node_at(4, 4)
        cur = topo.node_at(3, 0)
        ports = net.routing.admissible_ports(cur, pkt(src, dst))
        assert EAST not in ports
        assert ports == (SOUTH,)

    def test_westbound_vertical_only_in_even_columns(self):
        net = make_net("odd_even")
        topo = net.topology
        src = topo.node_at(6, 1)
        dst = topo.node_at(1, 5)
        even_col = topo.node_at(4, 2)
        odd_col = topo.node_at(3, 2)
        assert SOUTH in net.routing.admissible_ports(even_col, pkt(src, dst))
        assert net.routing.admissible_ports(odd_col, pkt(src, dst)) == (WEST,)


@pytest.mark.parametrize("name", TURN_MODELS)
class TestEndToEnd:
    def test_uniform_traffic_drains(self, name):
        from repro.traffic.patterns import UniformPattern
        from repro.traffic.synthetic import SyntheticTrafficSource

        cfg = NocConfig(width=5, height=5)
        sim, net = build_simulation(cfg, routing=name)
        sim.add_traffic(
            SyntheticTrafficSource(
                nodes=range(25), rate=0.15, pattern=UniformPattern(net.topology),
                app_id=0, seed=4, stop=400,
            )
        )
        sim.run(400)
        assert sim.run_until_drained(20_000)
        assert net.stats.packets_ejected > 100

    def test_composes_with_rair(self, name):
        from repro.core.regions import RegionMap
        from repro.traffic.regional import RegionalAppTraffic

        cfg = NocConfig(width=6, height=6)
        topo = MeshTopology(6, 6)
        rm = RegionMap.halves(topo)
        sim, net = build_simulation(cfg, region_map=rm, scheme="rair", routing=name)
        for app in (0, 1):
            sim.add_traffic(
                RegionalAppTraffic(
                    rm, app, rate=0.1, seed=app + 1,
                    intra_fraction=0.7, inter_fraction=0.3, mc_fraction=0.0,
                    stop=400,
                )
            )
        sim.run(400)
        assert sim.run_until_drained(20_000)
        assert net.stats.packets_ejected > 50
