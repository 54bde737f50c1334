"""Property-based whole-simulation invariants.

Random small configurations and workloads are simulated to completion and
the global invariants checked:

* conservation — every injected packet ejects exactly once,
* clean final state — buffers empty, credits restored, counters zero,
* latency lower bound — no packet beats the zero-load pipeline,
* monotone occupancy bookkeeping throughout the run.

These are the closest thing to a model-checking pass the simulator gets;
they run on 3x3..5x5 meshes to keep hypothesis example budgets sane.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_simulation
from repro.core.regions import RegionMap
from repro.noc.config import NocConfig
from repro.noc.topology import MeshTopology
from repro.traffic.patterns import UniformPattern
from repro.traffic.synthetic import BimodalLengths, SyntheticTrafficSource

schemes = st.sampled_from(["rr", "stc", "rair"])
routings = st.sampled_from(["xy", "local", "dbar", "west_first", "odd_even"])
dims = st.integers(min_value=3, max_value=5)
rates = st.floats(min_value=0.01, max_value=0.25)
seeds = st.integers(min_value=0, max_value=2**31)


def simulate(w, h, scheme, routing, rate, seed, cycles=300, regions=False):
    cfg = NocConfig(width=w, height=h)
    topo = MeshTopology(w, h)
    rm = RegionMap.halves(topo) if regions else None
    sim, net = build_simulation(cfg, region_map=rm, scheme=scheme, routing=routing)
    src = SyntheticTrafficSource(
        nodes=range(cfg.num_nodes),
        rate=rate,
        pattern=UniformPattern(topo),
        app_id=0,
        seed=seed,
        lengths=BimodalLengths(),
        region_map=rm,
        stop=cycles,
    )
    sim.add_traffic(src)
    sim.run(cycles)
    drained = sim.run_until_drained(30_000)
    return sim, net, src, drained


@given(dims, dims, schemes, routings, rates, seeds, st.booleans())
@settings(max_examples=25, deadline=None)
def test_conservation_and_clean_final_state(w, h, scheme, routing, rate, seed, regions):
    sim, net, src, drained = simulate(w, h, scheme, routing, rate, seed, regions=regions)
    assert drained
    # Conservation: everything injected was ejected exactly once.
    assert net.stats.packets_ejected == src.packets_injected
    assert net.packets_in_flight == 0
    # Clean state.
    assert net.total_buffered_flits() == 0
    for router in net.routers:
        assert router.busy_vcs == 0
        assert (router.ovc_n, router.ovc_f) == (0, 0)
        for port in range(1, 5):
            for vc in range(net.config.total_vcs):
                assert router.out_credits[port][vc] == net.config.vc_depth
                assert router.out_owner[port][vc] is None


@given(dims, dims, schemes, routings, seeds)
@settings(max_examples=15, deadline=None)
def test_latency_lower_bound(w, h, scheme, routing, seed):
    """No packet is faster than pipeline depth x hops plus serialization."""
    sim, net, src, drained = simulate(w, h, scheme, routing, rate=0.1, seed=seed)
    assert drained
    stats, topo = net.stats, net.topology
    for inject, eject, source, dest, length in zip(
        stats._inject, stats._eject, stats._src, stats._dst, stats._length
    ):
        min_lat = 3 * (topo.hop_distance(source, dest) + 1) + (length - 1)
        assert eject - inject >= min_lat


@given(dims, schemes, rates, seeds)
@settings(max_examples=10, deadline=None)
def test_occupancy_never_negative_during_run(w, scheme, rate, seed):
    cfg = NocConfig(width=w, height=w)
    sim, net = build_simulation(cfg, scheme=scheme, routing="local")
    src = SyntheticTrafficSource(
        nodes=range(cfg.num_nodes), rate=rate,
        pattern=UniformPattern(net.topology), app_id=0, seed=seed,
    )
    sim.add_traffic(src)
    for _ in range(150):
        sim.step()
        assert min(net.occupancy) >= 0
        assert sum(net.occupancy) == sum(r.buffered_flits() for r in net.routers)
