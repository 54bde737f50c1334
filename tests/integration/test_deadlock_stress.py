"""Deadlock/livelock stress tests.

Duato escape VCs must keep every configuration deadlock-free even under
loads past saturation and with adversarial packet mixes. The watchdog
inside the simulator raises on 5000 progress-free cycles, so simply
finishing these runs is the assertion.
"""

import pytest

from repro import build_simulation
from repro.core.regions import RegionMap
from repro.noc.config import NocConfig
from repro.noc.topology import MeshTopology
from repro.traffic.adversarial import AdversarialTrafficSource
from repro.traffic.parsec import PARSEC_PROFILES, ParsecWorkload
from repro.traffic.patterns import BitComplementPattern, TransposePattern, UniformPattern
from repro.traffic.synthetic import BimodalLengths, SyntheticTrafficSource


def saturating_run(routing, scheme, pattern_cls, cycles=1500, rate=0.6):
    cfg = NocConfig(width=6, height=6)
    topo = MeshTopology(6, 6)
    rm = RegionMap.quadrants(topo) if scheme == "rair" else None
    sim, net = build_simulation(cfg, region_map=rm, scheme=scheme, routing=routing)
    pattern = pattern_cls(topo)
    sim.add_traffic(
        SyntheticTrafficSource(
            nodes=range(36), rate=rate, pattern=pattern, app_id=0, seed=13,
            lengths=BimodalLengths(), stop=cycles,
        )
    )
    sim.run(cycles)
    # Drain with a generous cap; success = no watchdog SimulationError and
    # meaningful forward progress.
    sim.run_until_drained(60_000)
    return net


@pytest.mark.parametrize("routing", ["xy", "local", "dbar"])
def test_oversaturated_uniform_does_not_deadlock(routing):
    net = saturating_run(routing, "rr", UniformPattern)
    assert net.stats.packets_ejected > 500


@pytest.mark.parametrize("pattern_cls", [TransposePattern, BitComplementPattern])
def test_adversarial_permutations_do_not_deadlock(pattern_cls):
    net = saturating_run("local", "rr", pattern_cls)
    assert net.stats.packets_ejected > 500


def test_rair_under_oversaturation_does_not_deadlock():
    net = saturating_run("local", "rair", UniformPattern)
    assert net.stats.packets_ejected > 500


def test_parsec_with_flood_does_not_deadlock():
    cfg = NocConfig(width=6, height=6, num_vnets=2)
    topo = MeshTopology(6, 6)
    rm = RegionMap.quadrants(topo)
    sim, net = build_simulation(cfg, region_map=rm, scheme="rair", routing="local")
    profiles = [
        PARSEC_PROFILES[n]
        for n in ("blackscholes", "swaptions", "fluidanimate", "raytrace")
    ]
    sim.add_traffic(ParsecWorkload(rm, profiles, seed=5))
    sim.add_traffic(
        AdversarialTrafficSource(topo, seed=6, rate=0.35, region_map=rm, stop=1200)
    )
    sim.run(1500)
    assert net.stats.packets_ejected > 200
    # Replies were generated and delivered on vnet 1.
    assert 5 in net.stats._length
