"""Hop-count tracking: minimal routings must traverse exactly the
Manhattan distance; the mean-hop statistic must match theory."""

import pytest

from repro import build_simulation
from repro.noc.config import NocConfig
from repro.noc.flit import Packet
from repro.noc.timing import mean_ur_hops
from repro.traffic.patterns import UniformPattern
from repro.traffic.synthetic import FixedLength, SyntheticTrafficSource


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
    a = net.stats._as_arrays()
    for i in range(len(a["src"])):
        expected = net.topology.hop_distance(int(a["src"][i]), int(a["dst"][i]))
        assert int(a["hops"][i]) == expected


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
    measured = net.stats.mean_hops(window=res.window)
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
    a = net.stats._as_arrays()
    for i in range(len(a["src"])):
        expected = net.topology.hop_distance(int(a["src"][i]), int(a["dst"][i]))
        assert int(a["hops"][i]) == expected  # minimal adaptive: no detours
