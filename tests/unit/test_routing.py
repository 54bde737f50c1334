"""Unit tests for routing algorithms and selection functions."""

import numpy as np
import pytest

from repro import build_simulation
from repro.core.regions import RegionMap
from repro.noc.config import NocConfig
from repro.noc.flit import Packet
from repro.noc.topology import EAST, LOCAL, SOUTH
from repro.routing import DbarRouting, DuatoAdaptiveRouting, XYRouting, make_routing
from repro.routing.selection import credit_rank, dbar_rank


def make_net(width=4, height=4, routing="xy", region_map=None):
    cfg = NocConfig(width=width, height=height)
    sim, net = build_simulation(cfg, region_map=region_map, routing=routing)
    return net


def pkt(src, dst, vnet=0):
    return Packet(src=src, dst=dst, length=1, inject_cycle=0, vnet=vnet)


class TestFactory:
    def test_names(self):
        assert isinstance(make_routing("xy"), XYRouting)
        assert isinstance(make_routing("local"), DuatoAdaptiveRouting)
        assert isinstance(make_routing("dbar"), DbarRouting)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_routing("maze")


class TestXY:
    def test_single_admissible_port(self):
        net = make_net(routing="xy")
        topo = net.topology
        p = pkt(topo.node_at(0, 0), topo.node_at(3, 3))
        assert net.routing.admissible_ports(p.src, p) == (EAST,)
        # After X is done, go south.
        p2 = pkt(topo.node_at(3, 0), topo.node_at(3, 3))
        assert net.routing.admissible_ports(p2.src, p2) == (SOUTH,)

    def test_local_at_destination(self):
        net = make_net(routing="xy")
        p = pkt(5, 5)
        assert net.routing.admissible_ports(5, p) == (LOCAL,)


class TestDuatoAdaptive:
    def test_admissible_is_minimal_set(self):
        net = make_net(routing="local")
        topo = net.topology
        p = pkt(topo.node_at(1, 1), topo.node_at(3, 3))
        assert set(net.routing.admissible_ports(p.src, p)) == {EAST, SOUTH}

    def test_escape_port_is_xy(self):
        net = make_net(routing="local")
        topo = net.topology
        p = pkt(topo.node_at(1, 1), topo.node_at(3, 3))
        assert net.routing.escape_port(p.src, p) == EAST

    def test_rank_prefers_more_credits(self):
        net = make_net(routing="local")
        topo = net.topology
        src = topo.node_at(1, 1)
        p = pkt(src, topo.node_at(3, 3))
        router = net.routers[src]
        # Drain credits on the EAST port: SOUTH should now rank first.
        for vc in range(net.config.total_vcs):
            router.out_credits[EAST][vc] = 0
        ranked = net.routing.rank_ports(src, p, (EAST, SOUTH))
        assert ranked[0] == SOUTH

    def test_rank_is_stable_on_ties(self):
        net = make_net(routing="local")
        topo = net.topology
        src = topo.node_at(1, 1)
        p = pkt(src, topo.node_at(3, 3))
        assert net.routing.rank_ports(src, p, (EAST, SOUTH)) == (EAST, SOUTH)


class TestCreditRank:
    def test_scores_negate_credits(self):
        net = make_net(routing="local")
        src = net.topology.node_at(1, 1)
        p = pkt(src, net.topology.node_at(3, 3))
        scores = credit_rank(net, src, p, (EAST, SOUTH))
        full = net.config.total_vcs // net.config.num_vnets * net.config.vc_depth
        assert scores == [-float(full), -float(full)]


class TestDbarRank:
    def test_prefers_uncongested_direction(self):
        net = make_net(width=8, height=8, routing="dbar")
        topo = net.topology
        src = topo.node_at(1, 1)
        p = pkt(src, topo.node_at(5, 5))
        # Pile congestion (quantized snapshot) along the east path.
        for x in (2, 3, 4, 5):
            net.congestion[topo.node_at(x, 1)] = 3
        scores = dbar_rank(net, src, p, (EAST, SOUTH))
        assert scores[0] > scores[1]
        assert net.routing.rank_ports(src, p, (EAST, SOUTH))[0] == SOUTH

    def test_reads_quantized_snapshot_not_raw_occupancy(self):
        net = make_net(width=8, height=8, routing="dbar")
        topo = net.topology
        src = topo.node_at(1, 1)
        p = pkt(src, topo.node_at(5, 1))
        # Raw occupancy piles up but the snapshot has not refreshed yet:
        # DBAR must not see it (models the propagation delay of the wired
        # congestion network).
        for x in (2, 3, 4, 5):
            net.occupancy[topo.node_at(x, 1)] = 30
        assert dbar_rank(net, src, p, (EAST,))[0] == 0.0
        net.refresh_congestion(0)
        score = dbar_rank(net, src, p, (EAST,))[0]
        assert score == pytest.approx(net.congestion_cap)  # capped levels

    def test_refresh_respects_period(self):
        net = make_net(width=8, height=8, routing="dbar")
        net.occupancy[:] = [30] * len(net.occupancy)
        net.refresh_congestion(1)  # off-period: no update
        assert net.congestion.sum() == 0
        net.refresh_congestion(net.congestion_period)
        assert (net.congestion == net.congestion_cap).all()

    def test_truncates_at_region_boundary(self):
        topo_net = make_net(width=8, height=8, routing="dbar")
        topo = topo_net.topology
        rm = RegionMap.halves(topo)  # boundary between x=3 and x=4
        net = make_net(width=8, height=8, routing="dbar", region_map=rm)
        src = topo.node_at(1, 1)
        p = pkt(src, topo.node_at(7, 1))
        # Congestion only beyond the boundary (other region).
        for x in (5, 6, 7):
            net.congestion[topo.node_at(x, 1)] = 3
        # Without truncation EAST would look congested; with truncation the
        # walk stops at x=4 (first foreign node) and sees little congestion.
        scores = dbar_rank(net, src, p, (EAST,))
        assert scores[0] == 0.0

    def test_includes_first_foreign_node_then_stops(self):
        topo = make_net(width=8, height=8).topology
        rm = RegionMap.halves(topo)
        net = make_net(width=8, height=8, routing="dbar", region_map=rm)
        src = topo.node_at(2, 2)
        p = pkt(src, topo.node_at(6, 2))
        net.congestion[topo.node_at(4, 2)] = 2  # first node across boundary
        net.congestion[topo.node_at(5, 2)] = 3  # must be ignored
        scores = dbar_rank(net, src, p, (EAST,))
        assert scores[0] == pytest.approx((0 + 2) / 2)


class TestDeadlockFreedomStructure:
    def test_escape_vc_structure(self):
        cfg = NocConfig(num_vnets=2)
        escapes = [v for v in range(cfg.total_vcs) if cfg.is_escape_vc(v)]
        assert escapes == [0, 5]

    def test_all_routings_reach_destination(self):
        # Follow each algorithm's first-ranked port greedily; must reach dst
        # within minimal hop count.
        for name in ("xy", "local", "dbar"):
            net = make_net(width=6, height=6, routing=name)
            topo = net.topology
            rng = np.random.default_rng(0)
            for _ in range(30):
                src, dst = rng.integers(36, size=2)
                if src == dst:
                    continue
                p = pkt(int(src), int(dst))
                cur = int(src)
                hops = 0
                while cur != dst:
                    ports = net.routing.admissible_ports(cur, p)
                    ranked = net.routing.rank_ports(cur, p, ports)
                    assert ranked, f"{name}: no admissible port at {cur}"
                    cur = topo.neighbor[cur][ranked[0]]
                    hops += 1
                assert hops == topo.hop_distance(int(src), int(dst))
