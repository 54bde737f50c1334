"""Integration tests for the Simulator driver: measurement protocol,
determinism, watchdog, traffic plumbing."""

import pytest

from repro import build_simulation
from repro.noc.config import NocConfig
from repro.noc.flit import Packet
from repro.noc.topology import EAST
from repro.traffic.patterns import UniformPattern
from repro.traffic.synthetic import FixedLength, SyntheticTrafficSource
from repro.util.errors import SimulationError

from tests.conftest import run_uniform


class TestMeasurementProtocol:
    def test_window_is_after_warmup(self):
        sim, net, res = run_uniform(warmup=100, measure=300)
        assert res.window == (100, 400)
        assert res.end_cycle >= 400

    def test_window_packets_all_drain(self):
        sim, net, res = run_uniform(rate=0.1)
        assert res.drained
        assert res.undrained_packets == 0
        assert net.window_ejected == net.window_injected

    def test_apl_measured_only_in_window(self):
        sim, net, res = run_uniform(rate=0.1, warmup=200, measure=400)
        lat = net.stats.latencies(window=res.window)
        assert len(lat) == net.window_injected
        assert (lat > 0).all()

    def test_measurement_counts_match_stats(self):
        sim, net, res = run_uniform(rate=0.1)
        assert net.stats.packet_count(window=res.window, include_adversarial=True) == (
            net.window_injected
        )

    def test_drain_limit_reports_undrained(self):
        # Saturating load with a tiny drain budget cannot drain.
        sim, net, res = run_uniform(rate=0.9, warmup=50, measure=300)
        cfg = NocConfig(width=4, height=4)
        sim2, net2 = build_simulation(cfg, scheme="rr", routing="xy")
        src = SyntheticTrafficSource(
            nodes=range(16), rate=0.95, pattern=UniformPattern(net2.topology),
            app_id=0, seed=3, lengths=FixedLength(5),
        )
        sim2.add_traffic(src)
        res2 = sim2.run_measurement(warmup=50, measure=500, drain_limit=50)
        assert not res2.drained
        assert res2.undrained_packets > 0


class TestDeterminism:
    def test_identical_seeds_identical_results(self):
        results = []
        for _ in range(2):
            sim, net, res = run_uniform(scheme="rair", routing="local", rate=0.2, seed=5)
            results.append(
                (
                    net.stats.packets_ejected,
                    net.stats.apl(window=res.window),
                    net.flits_moved,
                    res.end_cycle,
                )
            )
        assert results[0] == results[1]

    def test_different_seeds_differ(self):
        _, net1, r1 = run_uniform(rate=0.2, seed=5)
        _, net2, r2 = run_uniform(rate=0.2, seed=6)
        assert net1.stats.apl(window=r1.window) != net2.stats.apl(window=r2.window)

    def test_determinism_across_policies(self):
        # Same traffic seed, different policies: same offered packets.
        _, net1, _ = run_uniform(scheme="rr", rate=0.2, seed=5)
        _, net2, _ = run_uniform(scheme="rair", rate=0.2, seed=5)
        assert net1.stats.packets_ejected == net2.stats.packets_ejected


class TestWatchdog:
    def test_watchdog_fires_on_artificial_stall(self):
        cfg = NocConfig(width=4, height=4)
        sim, net = build_simulation(cfg, scheme="rr", routing="xy")
        net.inject(Packet(src=0, dst=3, length=1, inject_cycle=0))
        sim.step()  # head is buffered now
        # Sabotage: drain all credits at router 0's east port so the flit
        # can never move.
        router = net.routers[0]
        for vc in range(net.config.total_vcs):
            router.set_out_credits(EAST, vc, 0)
        sim.WATCHDOG_CYCLES = 200
        with pytest.raises(SimulationError, match="no flit moved"):
            sim.run(1000)

    def test_no_watchdog_on_long_idle(self):
        cfg = NocConfig(width=4, height=4)
        sim, net = build_simulation(cfg, scheme="rr", routing="xy")
        sim.WATCHDOG_CYCLES = 100
        sim.run(500)  # idle network must never trip the watchdog
        assert sim.cycle == 500


class TestTrafficPlumbing:
    def test_add_traffic_after_construction(self):
        cfg = NocConfig(width=4, height=4)
        sim, net = build_simulation(cfg)
        src = SyntheticTrafficSource(
            nodes=range(16), rate=0.1, pattern=UniformPattern(net.topology),
            app_id=0, seed=1,
        )
        sim.add_traffic(src)
        sim.run(100)
        assert src.packets_injected > 0

    def test_multiple_sources_compose(self):
        cfg = NocConfig(width=4, height=4)
        sim, net = build_simulation(cfg)
        for app in range(3):
            sim.add_traffic(
                SyntheticTrafficSource(
                    nodes=range(16), rate=0.05, pattern=UniformPattern(net.topology),
                    app_id=app, seed=app,
                )
            )
        res = sim.run_measurement(warmup=100, measure=400)
        assert res.drained
        assert set(net.stats.apps()) == {0, 1, 2}
