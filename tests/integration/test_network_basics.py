"""Integration tests: single packets through the network, timing, credits."""

import pytest

from repro import build_simulation
from repro.noc.config import NocConfig
from repro.noc.flit import Packet
from repro.util.errors import SimulationError


def build(width=4, height=4, routing="xy", scheme="rr", **cfg_kw):
    cfg = NocConfig(width=width, height=height, **cfg_kw)
    return build_simulation(cfg, scheme=scheme, routing=routing)


def send_one(sim, net, src, dst, length=1, vnet=0, limit=500):
    pkt = Packet(src=src, dst=dst, length=length, inject_cycle=sim.cycle, vnet=vnet)
    net.inject(pkt)
    assert sim.run_until_drained(limit)
    return pkt


class TestSinglePacket:
    def test_packet_is_delivered(self):
        sim, net = build()
        send_one(sim, net, src=0, dst=15)
        assert net.stats.packets_ejected == 1
        assert net.stats._dst[0] == 15

    def test_zero_load_latency_formula(self):
        """Zero-load single-flit latency is exactly 3 * (hops + 1).

        Each router traversal costs 3 cycles (buffer write, VA, SA+ST) and
        each of those traversals is followed by one link cycle (mesh link
        or NI ejection link), giving 3 cycles per hop plus 3 for the
        ejection router. Pinning the exact pipeline catches timing
        regressions.
        """
        topo = build()[1].topology
        for src, dst in [(0, 0), (0, 1), (0, 3), (0, 15)]:
            s, n = build()
            send_one(s, n, src=src, dst=dst)
            hops = topo.hop_distance(src, dst)
            lat = n.stats.latencies(include_adversarial=True)[-1]
            assert lat == 3 * (hops + 1), (src, dst, lat)

    def test_long_packet_serialization_adds_length(self):
        sim1, net1 = build()
        p1 = send_one(sim1, net1, src=0, dst=5, length=1)
        sim5, net5 = build()
        p5 = send_one(sim5, net5, src=0, dst=5, length=5)
        l1 = net1.stats.latencies(include_adversarial=True)[-1]
        l5 = net5.stats.latencies(include_adversarial=True)[-1]
        assert l5 == l1 + 4  # 4 extra flits stream 1/cycle behind the head

    def test_self_destination_rejected_by_pattern_layer_but_network_tolerates(self):
        # The network itself delivers src==dst packets via the LOCAL port.
        sim, net = build()
        send_one(sim, net, src=6, dst=6)
        assert net.stats.packets_ejected == 1

    def test_invalid_packets_rejected(self):
        sim, net = build()
        with pytest.raises(SimulationError):
            net.inject(Packet(src=0, dst=99, length=1, inject_cycle=0))
        with pytest.raises(SimulationError):
            net.inject(Packet(src=-1, dst=3, length=1, inject_cycle=0))
        with pytest.raises(SimulationError):
            net.inject(Packet(src=0, dst=3, length=50, inject_cycle=0))
        with pytest.raises(SimulationError):
            net.inject(Packet(src=0, dst=3, length=1, inject_cycle=0, vnet=2))


class TestConservation:
    def test_all_packets_delivered_and_state_clean(self):
        sim, net = build(routing="local")
        rng_pairs = [(0, 15), (3, 12), (5, 10), (15, 0), (9, 2), (7, 8)]
        for src, dst in rng_pairs:
            net.inject(Packet(src=src, dst=dst, length=5, inject_cycle=sim.cycle))
        assert sim.run_until_drained(2000)
        assert net.stats.packets_ejected == len(rng_pairs)
        # Network fully idle: occupancy zero, credits restored everywhere.
        assert net.total_buffered_flits() == 0
        for router in net.routers:
            assert router.busy_vcs == 0
            assert router.ovc_n == 0 and router.ovc_f == 0
            for port in range(1, 5):
                for vc in range(net.config.total_vcs):
                    assert router.out_credits[port][vc] == net.config.vc_depth
                    assert router.out_owner[port][vc] is None

    def test_occupancy_matches_recount(self):
        sim, net = build(routing="local")
        for i in range(10):
            net.inject(Packet(src=i, dst=15 - i, length=5, inject_cycle=0))
        for _ in range(20):
            sim.step()
            recount = sum(r.buffered_flits() for r in net.routers)
            assert recount == net.total_buffered_flits()

    def test_dpa_counters_match_recount(self):
        sim, net = build(routing="local", scheme="rair")
        for i in range(8):
            net.inject(Packet(src=i, dst=15 - i, length=5, inject_cycle=0, app_id=0))
        for _ in range(30):
            sim.step()
            for r in net.routers:
                n, f = r.occupied_vcs()
                assert (r.ovc_n, r.ovc_f) == (n, f)


class TestVirtualNetworks:
    def test_vnets_do_not_share_vcs(self):
        sim, net = build(num_vnets=2)
        send_one(sim, net, src=0, dst=5, vnet=1)
        assert net.stats.packets_ejected == 1

    def test_both_vnets_deliver_concurrently(self):
        sim, net = build(num_vnets=2)
        for vnet in (0, 1):
            for i in range(4):
                net.inject(Packet(src=i, dst=15 - i, length=5, inject_cycle=0, vnet=vnet))
        assert sim.run_until_drained(2000)
        assert net.stats.packets_ejected == 8


class TestInjectionLink:
    def test_injection_serializes_one_flit_per_cycle(self):
        # Two 5-flit packets from the same node: the second head cannot
        # enter before the first packet's 5 flits have streamed in.
        sim, net = build()
        net.inject(Packet(src=0, dst=5, length=5, inject_cycle=0))
        net.inject(Packet(src=0, dst=10, length=5, inject_cycle=0))
        assert sim.run_until_drained(1000)
        lat = sorted(net.stats.latencies(include_adversarial=True))
        assert lat[1] >= lat[0] + 5

    def test_queued_packets_counted(self):
        sim, net = build()
        for _ in range(10):
            net.inject(Packet(src=0, dst=5, length=5, inject_cycle=0))
        assert net.queued_packets() == 10
        sim.step()
        assert net.queued_packets() < 10
