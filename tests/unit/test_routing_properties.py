"""Property-based routing tests over random meshes and random pairs.

Hand-rolled generative testing (no external property-test dependency):
mesh dimensions and src/dst pairs are drawn from ``repro.util.rng``
streams with fixed seeds, so every run checks the same few hundred cases
and a failure reproduces exactly.

Properties:

* XY and Duato admissible ports are always *minimal* (each one strictly
  decreases the hop distance) and *in-bounds* (the port's neighbor
  exists) — on every node of every mesh, for any src/dst pair.
* Duato's escape port always equals the dimension-order (XY) port, i.e.
  the escape channel never leaves the XY turn set that makes the escape
  network deadlock-free.
* Greedily walking any admissible port reaches the destination in
  exactly ``hop_distance`` steps (minimality, end to end).
"""

from __future__ import annotations

import pytest

from repro import build_simulation
from repro.noc.config import NocConfig
from repro.noc.flit import Packet
from repro.noc.topology import LOCAL
from repro.util.rng import make_rng

#: (seed, cases) for the generative loops — bump cases for a deeper soak
SEED = 20260808
CASES = 120


def _random_meshes(rng, count):
    """Random (width, height) mesh sizes in 2..9, including the minima."""
    sizes = [(2, 2), (2, 9), (9, 2)]
    while len(sizes) < count:
        sizes.append((int(rng.integers(2, 10)), int(rng.integers(2, 10))))
    return sizes


def _build(routing: str, width: int, height: int):
    cfg = NocConfig(width=width, height=height)
    _sim, net = build_simulation(cfg, scheme="ro_rr", routing=routing)
    return net


def _pkt(src: int, dst: int) -> Packet:
    return Packet(src=src, dst=dst, length=1, inject_cycle=0)


@pytest.mark.parametrize("routing", ["xy", "local"])
def test_admissible_ports_minimal_and_in_bounds(routing):
    rng = make_rng(SEED)
    for width, height in _random_meshes(rng, 10):
        net = _build(routing, width, height)
        topo = net.topology
        n = topo.num_nodes
        for _ in range(CASES):
            src = int(rng.integers(0, n))
            dst = int(rng.integers(0, n))
            pkt = _pkt(src, dst)
            ports = net.routing.admissible_ports(src, pkt)
            assert len(ports) >= 1
            if src == dst:
                assert ports == (LOCAL,)
                continue
            dist = topo.hop_distance(src, dst)
            for port in ports:
                assert port != LOCAL
                neighbor = topo.neighbor[src][port]
                assert neighbor >= 0, (
                    f"{routing} emitted off-mesh port {port} at node {src} "
                    f"on {width}x{height}"
                )
                assert topo.hop_distance(neighbor, dst) == dist - 1, (
                    f"{routing} port {port} at {src}->{dst} is not minimal"
                )


def test_xy_is_deterministic_single_port():
    rng = make_rng(SEED + 1)
    for width, height in _random_meshes(rng, 6):
        net = _build("xy", width, height)
        topo = net.topology
        n = topo.num_nodes
        for _ in range(CASES):
            src = int(rng.integers(0, n))
            dst = int(rng.integers(0, n))
            pkt = _pkt(src, dst)
            ports = net.routing.admissible_ports(src, pkt)
            assert len(ports) == 1
            if src != dst:
                assert ports[0] == topo.dimension_order_port(src, dst)


def test_duato_escape_port_is_always_xy():
    """The escape channel never violates the XY turn set (Duato theory)."""
    rng = make_rng(SEED + 2)
    for width, height in _random_meshes(rng, 8):
        net = _build("local", width, height)
        topo = net.topology
        n = topo.num_nodes
        for _ in range(CASES):
            src = int(rng.integers(0, n))
            dst = int(rng.integers(0, n))
            if src == dst:
                continue
            pkt = _pkt(src, dst)
            escape = net.routing.escape_port(src, pkt)
            assert escape == topo.dimension_order_port(src, dst)
            # The escape direction must itself be admissible: a blocked
            # packet can always fall back onto it.
            assert escape in net.routing.admissible_ports(src, pkt)


@pytest.mark.parametrize("routing", ["xy", "local"])
def test_any_admissible_walk_reaches_destination_minimally(routing):
    """Following admissible ports (any branch) terminates in hop_distance steps."""
    rng = make_rng(SEED + 3)
    for width, height in _random_meshes(rng, 6):
        net = _build(routing, width, height)
        topo = net.topology
        n = topo.num_nodes
        for _ in range(CASES // 2):
            src = int(rng.integers(0, n))
            dst = int(rng.integers(0, n))
            pkt = _pkt(src, dst)
            node = src
            steps = 0
            expected = topo.hop_distance(src, dst)
            while node != dst:
                ports = net.routing.admissible_ports(node, pkt)
                # Random branch choice: adaptive algorithms offer several.
                port = ports[int(rng.integers(0, len(ports)))]
                node = topo.neighbor[node][port]
                steps += 1
                assert steps <= expected, f"{routing} walk overshot {src}->{dst}"
            assert steps == expected
            assert net.routing.admissible_ports(dst, pkt) == (LOCAL,)


@pytest.mark.parametrize("routing", ["xy", "local"])
def test_rank_ports_is_a_permutation(routing):
    """The selection function reorders, never adds/drops/duplicates ports."""
    rng = make_rng(SEED + 4)
    net = _build(routing, 6, 6)
    n = net.topology.num_nodes
    for _ in range(CASES):
        src = int(rng.integers(0, n))
        dst = int(rng.integers(0, n))
        pkt = _pkt(src, dst)
        ports = net.routing.admissible_ports(src, pkt)
        ranked = net.routing.rank_ports(src, pkt, ports)
        assert sorted(ranked) == sorted(ports)
