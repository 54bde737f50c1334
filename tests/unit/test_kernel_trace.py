"""Unit tests for the kernel trace hooks (noc/trace.py).

Named ``test_kernel_trace`` because ``test_trace.py`` already covers
*traffic* traces; this file covers the scheduler-event protocol.
"""

from __future__ import annotations

from repro import RegionMap, build_simulation
from repro.noc.config import NocConfig
from repro.noc.topology import LOCAL, MeshTopology
from repro.noc.trace import KernelTrace, RecordingTrace
from repro.traffic.patterns import UniformPattern
from repro.traffic.regional import RegionalAppTraffic
from repro.traffic.synthetic import FixedLength, SyntheticTrafficSource


def _traced_run(trace, seed=9, length=3, measure=300):
    cfg = NocConfig(width=4, height=4)
    sim, net = build_simulation(cfg, scheme="rr", routing="xy", trace=trace)
    sim.add_traffic(
        SyntheticTrafficSource(
            nodes=range(cfg.num_nodes),
            rate=0.1,
            pattern=UniformPattern(net.topology),
            app_id=0,
            seed=seed,
            lengths=FixedLength(length),
        )
    )
    res = sim.run_measurement(warmup=50, measure=measure, drain_limit=20_000)
    assert res.drained
    # run_measurement only drains the measurement window; empty the
    # network completely so event counts balance exactly.
    sim.traffic_sources.clear()
    for _ in range(20_000):
        if net.idle() and not net.busy_routers():
            break
        sim.step()
    assert not net.busy_routers()
    return net


class TestKernelTraceBase:
    def test_all_hooks_are_noops(self):
        tr = KernelTrace()
        assert tr.va_grant(0, 1, 2, 3, 4, 0, 7) is None
        assert tr.sa_win(0, 1, 2, 3, 4, 7) is None
        assert tr.flit_send(0, 1, 4, 0, 7, True) is None
        assert tr.credit_return(0, 1, 2, 3) is None
        assert tr.wake(0, 1) is None
        assert tr.sleep(0, 1) is None
        assert tr.dpa_flip(0, 1, True, 2, 3) is None

    def test_untraced_network_has_no_tracer(self):
        cfg = NocConfig(width=4, height=4)
        _, net = build_simulation(cfg, scheme="rr", routing="xy")
        assert net.trace is None


class TestRecordingTrace:
    def test_records_in_signature_order(self):
        tr = RecordingTrace()
        tr.wake(5, 3)
        tr.va_grant(6, 3, 1, 2, 4, 0, 42)
        tr.flit_send(7, 3, 4, 0, 42, False)
        assert tr.events == [
            ("wake", 5, 3),
            ("va_grant", 6, 3, 1, 2, 4, 0, 42),
            ("flit_send", 7, 3, 4, 0, 42, False),
        ]

    def test_of_kind_counts_clear(self):
        tr = RecordingTrace()
        tr.wake(1, 0)
        tr.sleep(2, 0)
        tr.wake(3, 1)
        assert tr.of_kind("wake") == [("wake", 1, 0), ("wake", 3, 1)]
        assert tr.counts() == {"wake": 2, "sleep": 1}
        tr.clear()
        assert tr.events == []


class TestTracedSimulation:
    def test_event_stream_is_consistent(self):
        tr = RecordingTrace()
        net = _traced_run(tr, length=3)
        counts = tr.counts()
        # Something actually happened on every channel of the protocol.
        for kind in ("va_grant", "sa_win", "flit_send", "credit_return", "wake", "sleep"):
            assert counts[kind] > 0, f"no {kind} events recorded"
        # One packet-hop = one VA grant, and (once drained) ends in
        # exactly one tail flit leaving through the granted output VC.
        tails = [e for e in tr.of_kind("flit_send") if e[6]]
        assert counts["va_grant"] == len(tails)
        # Every switch win moves exactly one flit.
        assert counts["sa_win"] == counts["flit_send"]
        # Every flit sent to a neighbouring router returns one credit;
        # ejected flits (LOCAL port) do not.
        to_links = [e for e in tr.of_kind("flit_send") if e[3] != LOCAL]
        assert counts["credit_return"] == len(to_links)
        # A drained network has slept every router it woke.
        assert counts["wake"] == counts["sleep"]

    def test_flit_send_agrees_with_network_counter(self):
        tr = RecordingTrace()
        net = _traced_run(tr)
        assert len(tr.of_kind("flit_send")) == net.flits_moved

    def test_identical_runs_identical_streams(self):
        # Packet pids come from a process-global counter, so normalize
        # them to first-appearance order before comparing streams.
        _PID_FIELD = {"va_grant": 7, "sa_win": 6, "flit_send": 5}

        def normalized(trace):
            remap = {}
            out = []
            for ev in trace.events:
                idx = _PID_FIELD.get(ev[0])
                if idx is None:
                    out.append(ev)
                else:
                    pid = remap.setdefault(ev[idx], len(remap))
                    out.append(ev[:idx] + (pid,) + ev[idx + 1 :])
            return out

        tr1, tr2 = RecordingTrace(), RecordingTrace()
        _traced_run(tr1, seed=13)
        _traced_run(tr2, seed=13)
        assert normalized(tr1) == normalized(tr2)

    def test_tracing_does_not_perturb_results(self):
        untraced = _traced_run(None)
        traced = _traced_run(RecordingTrace())
        assert traced.flits_moved == untraced.flits_moved
        assert traced.stats.packets_ejected == untraced.stats.packets_ejected


def _rair_flood_run(trace, cycles=800):
    """RAIR mesh under a foreign flood — guaranteed to flip DPA state."""
    cfg = NocConfig(width=6, height=6)
    rm = RegionMap.halves(MeshTopology(6, 6))
    sim, net = build_simulation(
        cfg, region_map=rm, scheme="rair", routing="local", trace=trace
    )
    sim.add_traffic(
        RegionalAppTraffic(rm, 0, rate=0.02, seed=3,
                           intra_fraction=1.0, inter_fraction=0.0, mc_fraction=0.0)
    )
    sim.add_traffic(
        SyntheticTrafficSource(
            nodes=range(36), rate=0.30, pattern=UniformPattern(net.topology),
            app_id=500, seed=4,
        )
    )
    sim.run(cycles)
    return net


class TestDpaFlipTrace:
    """The dpa_flip kernel event added for the observability subsystem."""

    def test_flips_are_recorded_in_signature_order(self):
        tr = RecordingTrace()
        _rair_flood_run(tr)
        flips = tr.of_kind("dpa_flip")
        assert flips, "foreign flood produced no DPA transitions"
        for kind, cycle, node, native_high, ovc_n, ovc_f in flips:
            assert kind == "dpa_flip"
            assert cycle >= 0
            assert 0 <= node < 36
            assert isinstance(native_high, bool)
            assert ovc_n >= 0 and ovc_f >= 0

    def test_flips_are_transitions_only(self):
        """Per router the flip stream strictly alternates, starting from
        the reset state (foreign-high, i.e. native_high False)."""
        tr = RecordingTrace()
        net = _rair_flood_run(tr)
        state = dict.fromkeys(range(36), False)
        for _, _cycle, node, native_high, _n, _f in tr.of_kind("dpa_flip"):
            assert native_high != state[node], (
                f"dpa_flip on node {node} repeated state {native_high}"
            )
            state[node] = native_high
        # The replayed stream must land on the routers' final live state.
        for router in net.routers:
            assert state[router.node] == router.native_high

    def test_flip_tracing_does_not_perturb_simulation(self):
        untraced = _rair_flood_run(None)
        traced = _rair_flood_run(RecordingTrace())
        assert traced.flits_moved == untraced.flits_moved
        assert traced.stats.packets_ejected == untraced.stats.packets_ejected
        assert [r.native_high for r in traced.routers] == [
            r.native_high for r in untraced.routers
        ]

    def test_hot_path_keeps_one_pointer_check_guard(self):
        """The emit site must stay a single ``tr is not None`` pointer
        check, inside the transition branch — untraced runs pay nothing."""
        import inspect

        from repro.core.rair import RairPolicy

        src = inspect.getsource(RairPolicy.end_router_cycle)
        assert src.count("self.network.trace") == 1
        assert "if tr is not None" in src
