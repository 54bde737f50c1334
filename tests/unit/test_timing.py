"""Unit tests for the analytic timing model, cross-checked vs simulation."""

import pytest

from repro import build_simulation
from repro.noc.config import NocConfig
from repro.noc.flit import Packet
from repro.noc.timing import ROUTER_CYCLES, mean_ur_hops, zero_load_latency
from repro.util.errors import ConfigError


class TestZeroLoadLatency:
    def test_closed_form(self):
        assert zero_load_latency(0, 1) == 3
        assert zero_load_latency(1, 1) == 6
        assert zero_load_latency(3, 1) == 12
        assert zero_load_latency(1, 5) == 10

    def test_validation(self):
        with pytest.raises(ConfigError):
            zero_load_latency(-1, 1)
        with pytest.raises(ConfigError):
            zero_load_latency(0, 0)

    def test_link_latency_scales_mesh_hops_only(self):
        cfg = NocConfig(link_latency=3)
        assert zero_load_latency(2, 1, cfg) == 3 * ROUTER_CYCLES + 2 * 2

    @pytest.mark.parametrize("dst,length", [(1, 1), (3, 1), (15, 1), (5, 5), (10, 3)])
    def test_matches_simulation(self, dst, length):
        cfg = NocConfig(width=4, height=4)
        sim, net = build_simulation(cfg, scheme="rr", routing="xy")
        net.inject(Packet(src=0, dst=dst, length=length, inject_cycle=0))
        assert sim.run_until_drained(1000)
        lat = int(net.stats.latencies(include_adversarial=True)[0])
        hops = net.topology.hop_distance(0, dst)
        assert lat == zero_load_latency(hops, length, cfg)

    def test_matches_simulation_with_slow_links(self):
        cfg = NocConfig(width=4, height=4, link_latency=2)
        sim, net = build_simulation(cfg, scheme="rr", routing="xy")
        net.inject(Packet(src=0, dst=3, length=1, inject_cycle=0))
        assert sim.run_until_drained(1000)
        lat = int(net.stats.latencies(include_adversarial=True)[0])
        assert lat == zero_load_latency(3, 1, cfg)


class TestMeanUrHops:
    def test_two_node_line(self):
        # 2x1 invalid (min mesh 2x2 for topology, but the formula is pure
        # math): pairs (0,1),(1,0) -> distance 1.
        assert mean_ur_hops(2, 1) == 1.0

    def test_8x8_known_value(self):
        # Mean UR distance on an 8x8 mesh is 16/3 * (1 - 1/n) adjusted for
        # src != dst; verify against brute force.
        import itertools

        def brute(w, h):
            nodes = list(itertools.product(range(w), range(h)))
            d = [
                abs(a[0] - b[0]) + abs(a[1] - b[1])
                for a in nodes
                for b in nodes
                if a != b
            ]
            return sum(d) / len(d)

        assert mean_ur_hops(8, 8) == pytest.approx(brute(8, 8))
        assert mean_ur_hops(4, 6) == pytest.approx(brute(4, 6))

    def test_validation(self):
        with pytest.raises(ConfigError):
            mean_ur_hops(0, 4)
        with pytest.raises(ConfigError):
            mean_ur_hops(1, 1)

    def test_zero_load_apl_prediction_close_to_simulation(self):
        """Measured light-load APL should sit near the analytic prediction."""
        from repro.traffic.patterns import UniformPattern
        from repro.traffic.synthetic import FixedLength, SyntheticTrafficSource

        cfg = NocConfig(width=4, height=4)
        sim, net = build_simulation(cfg, scheme="rr", routing="xy")
        sim.add_traffic(
            SyntheticTrafficSource(
                nodes=range(16), rate=0.01, pattern=UniformPattern(net.topology),
                app_id=0, seed=2, lengths=FixedLength(1),
            )
        )
        res = sim.run_measurement(warmup=200, measure=2000)
        predicted = zero_load_latency(round(mean_ur_hops(4, 4)), 1, cfg)
        measured = net.stats.apl(window=res.window)
        assert measured == pytest.approx(predicted, rel=0.15)
