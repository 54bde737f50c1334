"""Hop-count tracking: minimal routings must traverse exactly the
Manhattan distance; the mean-hop statistic must match theory."""

import pytest

from repro import build_simulation
from repro.noc.config import NocConfig
from repro.noc.flit import Packet
from repro.noc.timing import mean_ur_hops
from repro.traffic.patterns import UniformPattern
from repro.traffic.synthetic import FixedLength, SyntheticTrafficSource


def assert_minimal(net):
    """Every logged packet traversed exactly its Manhattan distance."""
    stats = net.stats
    for src, dst, hops in zip(stats._src, stats._dst, stats._hops):
        assert hops == net.topology.hop_distance(src, dst)


@pytest.mark.parametrize("routing", [
    "xy", "local", "dbar",
    pytest.param("west_first", id="wf"), pytest.param("odd_even", id="oe"),
])
def test_all_routings_are_minimal_in_hops(routing):
    cfg = NocConfig(width=5, height=5)
    sim, net = build_simulation(cfg, scheme="rr", routing=routing)
    pairs = [(0, 24), (3, 20), (7, 15), (12, 12), (24, 0), (6, 8)]
    for src, dst in pairs:
        net.inject(Packet(src=src, dst=dst, length=1, inject_cycle=sim.cycle))
    assert sim.run_until_drained(5000)
    assert_minimal(net)


def test_mean_hops_statistic_matches_theory():
    cfg = NocConfig(width=4, height=4)
    sim, net = build_simulation(cfg, scheme="rr", routing="xy")
    sim.add_traffic(
        SyntheticTrafficSource(
            nodes=range(16), rate=0.05, pattern=UniformPattern(net.topology),
            app_id=0, seed=8, lengths=FixedLength(1),
        )
    )
    res = sim.run_measurement(warmup=200, measure=3000)
    t0, t1 = res.window
    stats = net.stats
    hops = [
        h for h, inject, adversarial in zip(stats._hops, stats._inject, stats._is_adversarial)
        if t0 <= inject < t1 and not adversarial
    ]
    measured = sum(hops) / len(hops)
    assert measured == pytest.approx(mean_ur_hops(4, 4), rel=0.06)


def test_adaptive_routing_stays_minimal_under_load():
    cfg = NocConfig(width=4, height=4)
    sim, net = build_simulation(cfg, scheme="rr", routing="local")
    sim.add_traffic(
        SyntheticTrafficSource(
            nodes=range(16), rate=0.3, pattern=UniformPattern(net.topology),
            app_id=0, seed=9, stop=500,
        )
    )
    sim.run(500)
    assert sim.run_until_drained(20_000)
    assert_minimal(net)  # minimal adaptive: no detours
