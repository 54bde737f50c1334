"""Deadlock stress and end-to-end smoke for the wrap fabrics.

Same contract as test_deadlock_stress.py: the simulator's watchdog raises
after 5000 progress-free cycles, so draining an over-saturated run *is*
the deadlock-freedom assertion. The torus and ring rely on the dateline
escape classes (repro.noc.topology docstring) instead of the mesh's
naturally acyclic dimension-order graph, so they get their own saturating
runs, plus a fig10-shaped sweep proving the experiment stack works end to
end with both RAIR and RO_RR on each fabric.
"""

import pytest

from repro import build_simulation
from repro.core.regions import RegionMap
from repro.experiments import fig10_routing
from repro.experiments.runner import Effort
from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.noc.topology import make_topology
from repro.traffic.patterns import UniformPattern
from repro.traffic.synthetic import BimodalLengths, SyntheticTrafficSource


def saturating_run(
    config: NocConfig, scheme: str, routing: str, cycles=1500, rate=0.6
) -> Network:
    topo = make_topology(config)
    rm = RegionMap.quadrants(topo) if scheme == "rair" else None
    sim, net = build_simulation(config, region_map=rm, scheme=scheme, routing=routing)
    sim.add_traffic(
        SyntheticTrafficSource(
            nodes=range(topo.num_nodes),
            rate=rate,
            pattern=UniformPattern(topo),
            app_id=0,
            seed=13,
            lengths=BimodalLengths(),
            stop=cycles,
        )
    )
    sim.run(cycles)
    sim.run_until_drained(60_000)
    return net


@pytest.mark.parametrize("routing", ["xy", "local", "dbar"])
def test_oversaturated_torus_does_not_deadlock(routing):
    cfg = NocConfig(topology="torus", width=6, height=6)
    net = saturating_run(cfg, "rr", routing)
    assert net.stats.packets_ejected > 500


@pytest.mark.parametrize("routing", ["xy", "local", "dbar"])
def test_oversaturated_ring_does_not_deadlock(routing):
    cfg = NocConfig(topology="ring", width=16, height=1)
    net = saturating_run(cfg, "rr", routing, rate=0.3)
    assert net.stats.packets_ejected > 300


@pytest.mark.parametrize("kind,width,height", [("torus", 6, 6), ("ring", 16, 1)])
def test_rair_on_wrap_fabrics_does_not_deadlock(kind, width, height):
    cfg = NocConfig(topology=kind, width=width, height=height)
    rate = 0.6 if kind == "torus" else 0.3
    net = saturating_run(cfg, "rair", "local", rate=rate)
    assert net.stats.packets_ejected > 300


@pytest.mark.parametrize("topology", ["torus", "ring"])
def test_fig10_smoke_sweep_drains(topology):
    result = fig10_routing.run(
        effort=Effort.SMOKE,
        p_values=(1.0,),
        schemes=("RO_RR_Local", "RAIR_Local"),
        topology=topology,
    )
    assert result.metrics["failures"] == 0
    assert len(result.rows) == 2
    for row in result.rows:
        assert row["drained"] is True
        assert row["apl_app0"] == row["apl_app0"]  # not NaN
