"""Attach-time route tables must equal the dynamic per-packet queries.

Every caller reads routes through ``RoutingAlgorithm.route``, which uses
the table when one was built and the queries otherwise."""

from __future__ import annotations

import pytest

from repro.arbitration.base import ArbitrationPolicy
from repro.noc.config import NocConfig
from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.routing import make_routing

#: algorithms whose admissibility is a pure function of (node, dst)
ALGORITHMS = ["xy", "local", "dbar", "west_first"]


def _network(routing_name: str) -> Network:
    cfg = NocConfig(width=4, height=4)
    return Network(cfg, make_routing(routing_name), ArbitrationPolicy())


@pytest.mark.parametrize("name", ALGORITHMS)
def test_table_matches_dynamic_queries_for_every_pair(name):
    net = _network(name)
    routing = net.routing
    assert routing._route_table is not None
    n = net.topology.num_nodes
    for node in range(n):
        for dst in range(n):
            pkt = Packet(src=node, dst=dst, length=1, inject_cycle=0)
            assert routing.route(node, pkt) == _dynamic(routing, node, pkt), (
                f"{name}: table mismatch at node={node} dst={dst}"
            )


def _dynamic(routing, node, pkt):
    return (
        routing.admissible_ports(node, pkt),
        routing.escape_port(node, pkt),
        routing.escape_vc_class(node, pkt),
    )


def _assert_dynamic_path(net):
    routing = net.routing
    assert routing._route_table is None
    n = net.topology.num_nodes
    for node in range(n):
        for dst in range(n):
            pkt = Packet(src=(node + 3) % n, dst=dst, length=1, inject_cycle=0)
            assert routing.route(node, pkt) == _dynamic(routing, node, pkt)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_network_caches_table_entry(name):
    # The router's RC stage caches the table's own entry on the VC.
    net = _network(name)
    router = net.routers[0]
    invc = router.vcs[0]
    invc.pkt = Packet(src=0, dst=5, length=1, inject_cycle=0)
    entry = net.routing._route_table[5]
    assert router._route(invc) is entry[0]
    assert (invc.route_ports, invc.escape_port, invc.escape_class) == entry


def test_opt_out_keeps_dynamic_path():
    routing = make_routing("xy")
    routing.route_table_enabled = False
    cfg = NocConfig(width=4, height=4)
    _assert_dynamic_path(Network(cfg, routing, ArbitrationPolicy()))


def test_odd_even_opts_out():
    # Chiu's relation reads pkt.src (source-column turn exemption): a
    # (node, dst) table cannot represent it and must not be built.
    _assert_dynamic_path(_network("odd_even"))


def test_oversized_mesh_skips_table():
    routing = make_routing("xy")
    routing.TABLE_MAX_NODES = 8  # 4x4 = 16 nodes > 8
    cfg = NocConfig(width=4, height=4)
    _assert_dynamic_path(Network(cfg, routing, ArbitrationPolicy()))


def test_reattach_rebuilds_table():
    routing = make_routing("xy")
    _network_a = Network(NocConfig(width=4, height=4), routing, ArbitrationPolicy())
    table_a = routing._route_table
    Network(NocConfig(width=8, height=8), routing, ArbitrationPolicy())
    assert routing._route_table is not table_a
    assert len(routing._route_table) == 64 * 64


@pytest.mark.parametrize("topology, width, height", [
    ("mesh", 8, 8), ("torus", 4, 4), ("ring", 8, 1),
])
def test_xy_and_duato_ask_the_topology(topology, width, height):
    # The topology's queries themselves are held to BFS by
    # tests/property/test_topology_props.py; this pins what the two
    # routing algorithms make of them.
    cfg = NocConfig(topology=topology, width=width, height=height)
    xy, duato = (
        Network(cfg, make_routing(name), ArbitrationPolicy()).routing
        for name in ("xy", "local")
    )
    topo = xy.network.topology
    for node in range(topo.num_nodes):
        for dst in range(topo.num_nodes):
            pkt = Packet(src=node, dst=dst, length=1, inject_cycle=0)
            order = topo.dimension_order_port(node, dst)
            assert xy.admissible_ports(node, pkt) == (order,)
            assert duato.admissible_ports(node, pkt) == topo.minimal_ports(node, dst)
            assert xy.escape_port(node, pkt) == duato.escape_port(node, pkt) == order
            for routing in (xy, duato):
                ports = routing.admissible_ports(node, pkt)
                assert sorted(routing.rank_ports(node, pkt, ports)) == sorted(ports)
