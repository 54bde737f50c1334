"""A finished run frees itself: no simulation outlives ``run_scenario``.

A simulation's object graph is cyclic (routers and input VCs point back
at the network, the policy and routing algorithm hold it, an eject
callback's source holds it too), so without :meth:`Simulator.close` only
a cyclic garbage collection frees it. These tests disable the collector
and hold a weak reference to every :class:`~repro.noc.network.Network`
built: after ``run_scenario`` returns, or raises, none may be alive, and
no router or input VC of the run may be left for a collection to find.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import build_simulation
from repro.experiments.chaos import guard_chaos_scenario
from repro.experiments.runner import SCHEMES, Effort, run_scenario
from repro.experiments.scenarios import parsec_quadrants, two_app_msp
from repro.noc.buffers import InputVC
from repro.noc.guard import GuardConfig
from repro.noc.network import Network
from repro.noc.router import Router
from repro.noc.sim import Simulator
from repro.obs import ObsConfig
from repro.traffic.patterns import UniformPattern
from repro.traffic.synthetic import FixedLength, SyntheticTrafficSource
from repro.util.errors import GuardError, SimulationError


@pytest.fixture
def networks(monkeypatch):
    """Weak references to every Network built, with the cyclic collector off."""
    refs: list[weakref.ref] = []
    init = Network.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Network, "__init__", tracking_init)
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


def alive(refs) -> int:
    return sum(ref() is not None for ref in refs)


def kernel_objects() -> int:
    """Routers and input VCs the collector tracks, reachable or not."""
    return sum(isinstance(o, (Router, InputVC)) for o in gc.get_objects())


CELLS = {
    "plain": lambda tmp: (two_app_msp(1.0), {}),
    "obs_strict_guard": lambda tmp: (
        two_app_msp(1.0),
        {"obs": ObsConfig(dir=str(tmp)), "guard": GuardConfig(mode="strict")},
    ),
    # PARSEC sources register an eject callback on the network.
    "parsec": lambda tmp: (parsec_quadrants(), {}),
}


@pytest.mark.parametrize("case", sorted(CELLS))
def test_no_network_outlives_run_scenario(case, networks, tmp_path, monkeypatch):
    scenario, kwargs = CELLS[case](tmp_path)
    before = kernel_objects()
    run = run_scenario(SCHEMES["RA_RAIR"], scenario, Effort.SMOKE, seed=3, **kwargs)
    assert len(networks) == 1
    assert alive(networks) == 0
    assert kernel_objects() == before
    # Closing changes nothing about the result: the same cell with close()
    # a no-op (every run before it existed) summarises to an equal run.
    monkeypatch.setattr(Simulator, "close", lambda self: None)
    kept = run_scenario(SCHEMES["RA_RAIR"], scenario, Effort.SMOKE, seed=3, **kwargs)
    assert run == kept
    assert run.determinism_signature() == kept.determinism_signature()


def test_a_run_that_raises_releases_too(networks):
    scenario = guard_chaos_scenario("credit_leak")
    before = kernel_objects()
    with pytest.raises(GuardError) as excinfo:
        run_scenario(
            SCHEMES["RO_RR"], scenario, Effort.SMOKE, seed=7,
            guard=GuardConfig(mode="strict"),
        )
    assert excinfo.value.reason == "credit_conservation"
    # The traceback holds run_scenario's frame, and with it the network:
    # dropping the exception must free it without a collection.
    del excinfo
    assert len(networks) == 1
    assert alive(networks) == 0
    assert kernel_objects() == before


def uniform_simulation():
    sim, net = build_simulation()
    sim.add_traffic(
        SyntheticTrafficSource(
            nodes=range(net.topology.num_nodes), rate=0.05,
            pattern=UniformPattern(net.topology), app_id=0, seed=1,
            lengths=FixedLength(2),
        )
    )
    return sim, net


def test_close_twice_is_a_no_op():
    sim, net = uniform_simulation()
    res = sim.run_measurement(warmup=50, measure=200)
    apl = net.stats.apl(window=res.window)
    sim.close()
    sim.close()
    assert not sim.traffic_sources and sim.obs is None and sim.guard is None
    assert net.policy.network is None and net.routing.network is None
    assert all(r.network is None for r in net.routers)
    # The summary stays readable after the release.
    assert net.stats.apl(window=res.window) == apl


@pytest.mark.parametrize(
    "drive",
    [
        lambda sim: sim.run(10),
        lambda sim: sim.run_measurement(10, 10),
        lambda sim: sim.run_until_drained(10),
    ],
    ids=["run", "run_measurement", "run_until_drained"],
)
def test_a_closed_simulation_refuses_to_run(drive):
    # Unchecked, run() failed deep in the kernel on a released VC, and
    # run_measurement() returned an empty window that claimed to drain.
    sim, net = uniform_simulation()
    sim.run(20)
    sim.close()
    window = net.measure_window
    with pytest.raises(SimulationError, match="8x8 mesh.* closed at cycle 20"):
        drive(sim)
    # A refused call changes nothing, not even the measurement window.
    assert sim.cycle == 20 and net.measure_window == window
