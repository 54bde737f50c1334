"""Idle-cycle fast-forward: bit-identity against naive per-cycle ticking.

The fast-forward optimisation must be *invisible* in every observable:
``MeasurementResult`` fields, per-packet statistics, and policy state
after idle-gap boundary replay. This file is the kernel half of the
proof: each test runs the same hand-built workload twice, fast-forward
on (the default) and naive (``Simulator(..., fast_forward=False)``), and
asserts equality, plus that the fast path actually engaged where the
workload has idle gaps (otherwise these tests would vacuously compare
naive against naive). The engine half, every distinct paper scheme's
cell and obs stream under naive ticking, is
``tests/integration/test_seed_matrix.py``.
"""

from __future__ import annotations

import pytest

from repro.arbitration.base import ArbitrationPolicy
from repro.arbitration.stc import StcPolicy
from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.noc.sim import Simulator
from repro.noc.topology import MeshTopology
from repro.routing import make_routing
from repro.traffic.patterns import UniformPattern
from repro.traffic.synthetic import FixedLength, SyntheticTrafficSource
from repro.traffic.trace import TraceTrafficSource, capture_trace


def _trickle_sim(fast_forward, policy=None, routing="xy", rate=0.05, seed=11):
    """Two corner sources on an 8x8 mesh — mostly idle at low rates."""
    cfg = NocConfig(width=8, height=8, vc_depth=8, max_packet_flits=8)
    net = Network(cfg, make_routing(routing), policy or ArbitrationPolicy())
    topo = MeshTopology(8, 8)
    source = SyntheticTrafficSource(
        nodes=[0, 63],
        rate=rate,
        pattern=UniformPattern(topo),
        app_id=0,
        seed=seed,
        lengths=FixedLength(8),
    )
    return Simulator(net, [source], fast_forward=fast_forward), net, source


def _observables(sim, net, source, result):
    return {
        "window": result.window,
        "end_cycle": result.end_cycle,
        "drained": result.drained,
        "abort": result.abort,
        "latencies": tuple(net.stats.latencies(window=result.window).tolist()),
        "hops": tuple(net.stats._hops),
        "ejected": net.stats.packets_ejected,
        "injected": source.packets_injected,
        "flits": source.flits_injected,
        "flits_moved": net.flits_moved,
        "app_flits": dict(net.app_flits_injected),
    }


class TestBitIdentity:
    def test_trickle_identical_and_ff_engages(self):
        runs = {}
        for ff in (True, False):
            sim, net, source = _trickle_sim(ff)
            result = sim.run_measurement(warmup=300, measure=1500)
            runs[ff] = (_observables(sim, net, source, result), result.metrics)
        assert runs[True][0] == runs[False][0]
        # The optimisation must actually fire on this workload...
        assert runs[True][1].ff_jumps > 0
        assert runs[True][1].ff_cycles_skipped > 0
        # ...and never in the naive arm.
        assert runs[False][1].ff_jumps == 0
        assert runs[False][1].ff_cycles_skipped == 0

    @pytest.mark.parametrize("routing", ["xy", "local", "dbar"])
    def test_identical_across_routing_algorithms(self, routing):
        obs = {}
        for ff in (True, False):
            sim, net, source = _trickle_sim(ff, routing=routing)
            result = sim.run_measurement(warmup=200, measure=800)
            obs[ff] = _observables(sim, net, source, result)
        assert obs[True] == obs[False]

    def test_trace_replay_identical(self):
        topo = MeshTopology(8, 8)
        gen = SyntheticTrafficSource(
            nodes=[0, 63],
            rate=0.05,
            pattern=UniformPattern(topo),
            app_id=0,
            seed=7,
            lengths=FixedLength(5),
        )
        trace = capture_trace([gen], cycles=600)
        assert len(trace) > 0
        obs = {}
        for ff in (True, False):
            cfg = NocConfig(width=8, height=8, vc_depth=8, max_packet_flits=8)
            net = Network(cfg, make_routing("xy"), ArbitrationPolicy())
            source = TraceTrafficSource(trace)
            sim = Simulator(net, [source], fast_forward=ff)
            result = sim.run_measurement(warmup=100, measure=700)
            obs[ff] = (
                {
                    "window": result.window,
                    "end_cycle": result.end_cycle,
                    "drained": result.drained,
                    "latencies": tuple(
                        net.stats.latencies(window=result.window).tolist()
                    ),
                    "ejected": net.stats.packets_ejected,
                    "injected": source.packets_injected,
                },
                result.metrics.ff_jumps,
            )
        assert obs[True][0] == obs[False][0]
        assert obs[True][1] > 0


class TestPolicyBoundaryReplay:
    """Policies with per-interval state must see identical boundaries.

    The workload injects until a stop cycle, goes fully idle across
    several policy boundaries (STC rank intervals), then a second
    source resumes — so the idle gap's boundary replay feeds directly
    into post-gap arbitration state.
    """

    def _gapped_run(self, policy, fast_forward):
        cfg = NocConfig(width=8, height=8, vc_depth=8, max_packet_flits=8)
        net = Network(cfg, make_routing("xy"), policy)
        topo = MeshTopology(8, 8)
        early = SyntheticTrafficSource(
            nodes=[0, 9],
            rate=0.2,
            pattern=UniformPattern(topo),
            app_id=0,
            seed=3,
            lengths=FixedLength(4),
            stop=250,
        )
        late = SyntheticTrafficSource(
            nodes=[54, 63],
            rate=0.2,
            pattern=UniformPattern(topo),
            app_id=1,
            seed=4,
            lengths=FixedLength(4),
            start=1500,
        )
        sim = Simulator(net, [early, late], fast_forward=fast_forward)
        sim.run(2400)
        sim.run_until_drained(5000)
        return sim, net

    def test_stc_rank_replay(self):
        state = {}
        for ff in (True, False):
            policy = StcPolicy(rank_interval=100, batch_period=50)
            sim, net = self._gapped_run(policy, ff)
            state[ff] = (
                dict(policy.ranks),
                dict(policy._last_counts),
                net.stats.packets_ejected,
                tuple(net.stats._eject),
                sim.metrics.ff_jumps > 0,
            )
        assert state[True][:4] == state[False][:4]
        assert state[True][4] is True  # the gap was actually skipped
        assert state[False][4] is False

