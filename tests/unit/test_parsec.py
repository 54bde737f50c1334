"""Unit tests for the PARSEC-like workload generator."""

import pytest

from repro.core.regions import RegionMap
from repro.noc.flit import LONG_PACKET_FLITS, MessageClass, PacketPool
from repro.noc.topology import MeshTopology
from repro.traffic.parsec import (
    L2_SERVICE_LATENCY,
    MC_SERVICE_LATENCY,
    PARSEC_PROFILES,
    ParsecAppProfile,
    ParsecWorkload,
)
from repro.util.errors import TrafficError


class FakeNetwork:
    def __init__(self):
        self.packets = []
        self.eject_callbacks = []
        self.alloc_packet = PacketPool().alloc

    def inject(self, pkt):
        self.packets.append(pkt)


def mean_rate(profile: ParsecAppProfile) -> float:
    """Steady-state requests/node/cycle of the profile's ON/OFF chain."""
    denom = profile.p_on_off + profile.p_off_on
    if denom == 0:
        return profile.rate_off  # degenerate: stays in its initial (OFF) state
    p_on = profile.p_off_on / denom
    return p_on * profile.rate_on + (1 - p_on) * profile.rate_off


@pytest.fixture
def topo():
    return MeshTopology(8, 8)


@pytest.fixture
def quads(topo):
    return RegionMap.quadrants(topo)


def profiles4():
    return [PARSEC_PROFILES[n] for n in ("blackscholes", "swaptions", "fluidanimate", "raytrace")]


class TestProfiles:
    def test_all_thirteen_named_four_present(self):
        # The paper presents this representative subset.
        for name in ("blackscholes", "swaptions", "fluidanimate", "raytrace"):
            assert name in PARSEC_PROFILES

    def test_intensity_ordering_matches_paper(self):
        # "both low and high intensity traffic": raytrace most intensive.
        rates = {n: mean_rate(p) for n, p in PARSEC_PROFILES.items()}
        assert rates["raytrace"] > rates["fluidanimate"] > rates["swaptions"]
        assert rates["swaptions"] > rates["blackscholes"]

    def test_profile_validation(self):
        with pytest.raises(TrafficError):
            ParsecAppProfile("bad", rate_on=1.5, rate_off=0, p_on_off=0.1, p_off_on=0.1)
        with pytest.raises(TrafficError):
            ParsecAppProfile(
                "bad", rate_on=0.1, rate_off=0, p_on_off=0.1, p_off_on=0.1,
                local_frac=0.8, mc_frac=0.3,
            )

    def test_mean_rate_between_off_and_on(self):
        for prof in PARSEC_PROFILES.values():
            assert prof.rate_off <= mean_rate(prof) <= prof.rate_on

    def test_frozen_chain_keeps_the_initial_off_rate(self):
        # Every node starts OFF; a chain that never switches stays there.
        frozen = ParsecAppProfile("frozen", rate_on=0.5, rate_off=0.0, p_on_off=0, p_off_on=0)
        assert mean_rate(frozen) == 0.0
        wl = ParsecWorkload(RegionMap.quadrants(MeshTopology(4, 4)), [frozen] * 4, seed=1)
        net = FakeNetwork()
        for cycle in range(1000):
            wl.tick(cycle, net)
        assert net.packets == []


class TestWorkload:
    def test_profile_count_checked(self, quads):
        with pytest.raises(TrafficError):
            ParsecWorkload(quads, profiles4()[:2], seed=1)

    def test_requests_on_vnet0_replies_on_vnet1(self, quads):
        wl = ParsecWorkload(quads, profiles4(), seed=1)
        net = FakeNetwork()
        for cycle in range(300):
            wl.tick(cycle, net)
        requests = [p for p in net.packets if p.vnet == int(MessageClass.REQUEST)]
        assert requests
        assert all(p.length == 1 for p in requests)
        assert set(wl._service_latency) == {p.pid for p in requests}
        for req in requests:  # every request ejects: each gets one reply
            net.eject_callbacks[0](req, 300)
        wl.tick(300 + MC_SERVICE_LATENCY, net)
        replies = [p for p in net.packets if p.vnet == int(MessageClass.REPLY)]
        assert len(replies) == len(requests)
        assert all(p.length == LONG_PACKET_FLITS for p in replies)
        assert wl._service_latency == {}

    def test_reply_generated_after_service_latency(self, quads):
        wl = ParsecWorkload(quads, profiles4(), seed=1)
        net = FakeNetwork()
        wl.tick(0, net)  # attaches the callback
        assert net.eject_callbacks
        # Simulate an ejected L2 request.
        req = None
        for cycle in range(1, 400):
            wl.tick(cycle, net)
            reqs = [p for p in net.packets if p.vnet == 0 and p.dst not in wl.mc_nodes]
            if reqs:
                req = reqs[0]
                break
        assert req is not None
        net.eject_callbacks[0](req, 500)
        count_replies = lambda: sum(1 for p in net.packets if p.vnet == 1)  # noqa: E731
        for cycle in range(500, 500 + L2_SERVICE_LATENCY):
            wl.tick(cycle, net)
        assert count_replies() == 0  # not due yet
        wl.tick(500 + L2_SERVICE_LATENCY, net)
        replies = [p for p in net.packets if p.vnet == 1]
        assert len(replies) == 1
        reply = replies[0]
        assert (reply.src, reply.dst) == (req.dst, req.src)
        assert reply.length == 5
        assert reply.app_id == req.app_id

    def test_mc_requests_have_memory_latency(self, quads):
        wl = ParsecWorkload(quads, profiles4(), seed=3)
        net = FakeNetwork()
        for cycle in range(3000):
            wl.tick(cycle, net)
        mc_reqs = [p for p in net.packets if p.vnet == 0 and p.dst in wl.mc_nodes]
        other = [p for p in net.packets if p.vnet == 0 and p.dst not in wl.mc_nodes]
        assert mc_reqs and other
        latency = wl._service_latency
        assert all(latency[p.pid] == MC_SERVICE_LATENCY for p in mc_reqs)
        assert all(latency[p.pid] == L2_SERVICE_LATENCY for p in other)

    def test_locality_dominates(self, quads):
        wl = ParsecWorkload(quads, profiles4(), seed=5)
        net = FakeNetwork()
        for cycle in range(4000):
            wl.tick(cycle, net)
        local = sum(1 for p in net.packets if not p.is_global)
        assert local / len(net.packets) > 0.55

    def test_app_attribution_matches_source_region(self, quads):
        wl = ParsecWorkload(quads, profiles4(), seed=5)
        net = FakeNetwork()
        for cycle in range(500):
            wl.tick(cycle, net)
        for p in net.packets:
            if p.vnet == 0:
                assert quads.app_of(p.src) == p.app_id

    def test_determinism(self, quads):
        def run():
            wl = ParsecWorkload(quads, profiles4(), seed=9)
            net = FakeNetwork()
            for cycle in range(400):
                wl.tick(cycle, net)
            return [(p.src, p.dst, p.inject_cycle) for p in net.packets]

        assert run() == run()


def scalar_step(wl, nodes, on, cycle, net):
    """The per-node loop ``ParsecWorkload.tick`` ran before it stepped the
    ON/OFF chain as vectors, kept as the reference (``nodes``: the assigned
    ones, ascending; ``on`` is indexed by node; replies are left out —
    nothing ejects from a ``FakeNetwork``)."""
    node_app = wl.region_map.node_app
    u_state = wl.rng.random(len(nodes))
    u_fire = wl.rng.random(len(nodes))
    for i, node in enumerate(nodes):
        app = node_app[node]
        prof = wl.profiles[app]
        if on[node]:
            if u_state[i] < prof.p_on_off:
                on[node] = False
        elif u_state[i] < prof.p_off_on:
            on[node] = True
        rate = prof.rate_on if on[node] else prof.rate_off
        if u_fire[i] < rate:
            wl._inject_request(net, node, app, prof, cycle)


class TestVectorStep:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_matches_scalar_loop(self, topo, seed):
        # Five regions with a gap: column 3 and the bottom rows stay
        # unassigned (-1). App 4 never leaves its initial state.
        stuck = ParsecAppProfile("stuck", rate_on=0.05, rate_off=0.01, p_on_off=0.0, p_off_on=0.0)
        rows = ["000.1111"] * 3 + ["222.3344"] * 3 + ["........"] * 2
        rm = RegionMap(topo, [-1 if c == "." else int(c) for row in rows for c in row])
        assert -1 in rm.node_app
        profiles = profiles4() + [stuck]
        vec, ref = ParsecWorkload(rm, profiles, seed=seed), ParsecWorkload(rm, profiles, seed=seed)
        vec_net, ref_net = FakeNetwork(), FakeNetwork()
        ref_on = [False] * topo.num_nodes
        active = [n for n in range(topo.num_nodes) if rm.node_app[n] >= 0]
        for cycle in range(2500):
            vec.tick(cycle, vec_net)
            scalar_step(ref, active, ref_on, cycle, ref_net)
            if cycle % 100 == 0:
                assert vec._on.tolist() == [ref_on[n] for n in active]
        def rows(wl, net):
            latency = wl._service_latency
            return [
                (p.inject_cycle, p.src, p.dst, p.app_id, latency[p.pid])
                for p in net.packets
            ]

        assert rows(vec, vec_net) == rows(ref, ref_net)
        assert len(vec_net.packets) > 1000
        assert {p.app_id for p in vec_net.packets} == {0, 1, 2, 3, 4}
        assert any(ref_on) and not any(ref_on[n] for n in rm.nodes_of(4))
        assert vec.rng.bit_generator.state == ref.rng.bit_generator.state


class TestPacketPool:
    def test_parsec_packets_come_from_the_pool(self):
        """Ejection releases every packet into the pool, so PARSEC has to
        draw from it too: every request and reply is a counted allocation."""
        from repro import build_simulation
        from repro.experiments.runner import SCHEMES, Effort, run_scenario
        from repro.experiments.scenarios import parsec_quadrants
        from repro.noc.guard import GuardConfig

        scheme = SCHEMES["RA_RAIR"]
        scenario = parsec_quadrants(adversarial=False)
        sim, _net = build_simulation(
            scenario.config, region_map=scenario.region_map, scheme=scheme.policy,
            routing=scheme.routing, policy_kwargs=dict(scheme.policy_kwargs),
        )
        (wl,) = scenario.traffic_factory(42)
        sim.add_traffic(wl)
        warmup, measure = Effort.SMOKE.warmup, Effort.SMOKE.measure
        metrics = sim.run_measurement(warmup=warmup, measure=measure).metrics
        replies_built = wl._reply_seq
        assert wl.requests_injected > 0 and replies_built > 0
        assert metrics.pool_hits + metrics.pool_allocs == wl.requests_injected + replies_built
        assert metrics.pool_hits > 0
        # The guard's pool sweep over the free list, on PARSEC + flood traffic.
        run = run_scenario(
            scheme, parsec_quadrants(adversarial=True), Effort.SMOKE, 42,
            guard=GuardConfig(mode="strict"),
        )
        assert run.abort is None and run.drained

    @staticmethod
    def _guarded_run(quads, source, num_vnets, warmup=200, measure=800):
        """Run ``source`` alone under a strict guard (the pool_safety sweep)."""
        from repro import build_simulation
        from repro.noc.config import NocConfig
        from repro.noc.guard import GuardConfig, RuntimeGuard

        sim, net = build_simulation(
            NocConfig(num_vnets=num_vnets), region_map=quads, scheme="rair"
        )
        RuntimeGuard(GuardConfig(mode="strict"), "pool_safety").install(sim)
        sim.add_traffic(source)
        res = sim.run_measurement(warmup=warmup, measure=measure)
        assert res.abort is None and res.drained
        return net, res.metrics

    def test_coherence_packets_come_from_the_pool(self, topo):
        """Requests, forwards and data replies are all counted allocations,
        and a recycled object still gets the fresh pid continuations key on."""
        from repro.traffic.coherence import CoherenceConfig, CoherenceWorkload

        quads = RegionMap.quadrants(topo)
        wl = CoherenceWorkload(quads, CoherenceConfig(), seed=7)
        net, metrics = self._guarded_run(quads, wl, num_vnets=3)
        built = wl.intra_packets + wl.inter_packets + len(wl._pending)
        assert built >= net.packets_ejected > 0
        assert metrics.pool_hits + metrics.pool_allocs == built
        assert metrics.pool_hits > 0
        assert wl.transactions_completed > 0

    def test_trace_replay_packets_come_from_the_pool(self, topo):
        from repro.traffic.patterns import UniformPattern
        from repro.traffic.synthetic import SyntheticTrafficSource
        from repro.traffic.trace import TraceTrafficSource, capture_trace

        live = SyntheticTrafficSource(
            nodes=range(64), rate=0.05, app_id=0, seed=3, pattern=UniformPattern(topo)
        )
        replay = TraceTrafficSource(capture_trace([live], cycles=1000))
        net, metrics = self._guarded_run(
            RegionMap.quadrants(topo), replay, num_vnets=1
        )
        assert replay.packets_injected == net.packets_ejected > 0
        assert metrics.pool_hits + metrics.pool_allocs == replay.packets_injected
        assert metrics.pool_hits > 0
