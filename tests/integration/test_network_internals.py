"""Tests for network-internal mechanics: injection rotation, vnet
fairness, ejection callbacks, and bookkeeping counters."""


from repro import build_simulation
from repro.noc.config import NocConfig
from repro.noc.flit import Packet
from repro.noc.topology import LOCAL


def build(**kw):
    return build_simulation(NocConfig(width=4, height=4, **kw))


class TestInjectionRotation:
    def test_local_vcs_are_rotated(self):
        """Consecutive single-flit packets from one node should spread over
        the local input VCs rather than reusing VC 0."""
        sim, net = build()
        for _ in range(4):
            net.inject(Packet(src=5, dst=6, length=1, inject_cycle=0))
        used = set()
        for _ in range(4):
            sim.step()
            for vc, invc in enumerate(net.routers[5].in_vcs[LOCAL]):
                if invc.pkt is not None:
                    used.add(vc)
        assert len(used) >= 2

    def test_vnets_share_injection_link(self):
        """With both vnets backlogged, neither monopolizes the NI."""
        sim, net = build(num_vnets=2)
        for vnet in (0, 1):
            for i in range(6):
                net.inject(
                    Packet(src=5, dst=10, length=5, inject_cycle=0,
                           vnet=vnet, app_id=vnet)
                )
        assert sim.run_until_drained(20_000)
        stats = net.stats
        assert stats.packets_ejected == 12
        # Interleaving check: with a shared 1-flit/cycle NI, strict
        # serialization would finish one vnet (app) entirely before the
        # other starts ejecting; rotation must prevent that.
        eject0 = sorted(e for e, app in zip(stats._eject, stats._app) if app == 0)
        eject1 = sorted(e for e, app in zip(stats._eject, stats._app) if app == 1)
        assert eject0[0] < eject1[-1] and eject1[0] < eject0[-1]

    def test_injection_respects_packet_order_within_vnet(self):
        sim, net = build()
        first = Packet(src=5, dst=6, length=1, inject_cycle=0)
        second = Packet(src=5, dst=6, length=1, inject_cycle=0)
        net.inject(first)
        net.inject(second)
        assert sim.run_until_drained(1000)
        assert net.stats.packets_ejected == 2


class TestEjectionCallbacks:
    def test_callback_sees_packet_and_cycle(self):
        sim, net = build()
        seen = []
        net.eject_callbacks.append(lambda pkt, cycle: seen.append((pkt.pid, cycle)))
        p = Packet(src=0, dst=5, length=1, inject_cycle=0)
        net.inject(p)
        sim.run_until_drained(500)
        assert len(seen) == 1
        assert seen[0][0] == p.pid
        assert seen[0][1] > 0

    def test_multiple_callbacks_all_fire(self):
        sim, net = build()
        hits = [0, 0]
        net.eject_callbacks.append(lambda *_: hits.__setitem__(0, hits[0] + 1))
        net.eject_callbacks.append(lambda *_: hits.__setitem__(1, hits[1] + 1))
        net.inject(Packet(src=0, dst=5, length=1, inject_cycle=0))
        sim.run_until_drained(500)
        assert hits == [1, 1]


class TestCounters:
    def test_app_flit_counters(self):
        _, net = build()
        net.inject(Packet(src=0, dst=5, length=5, inject_cycle=0, app_id=3))
        assert net.app_flits_injected[3] == 5

    def test_packets_in_flight_tracks_lifecycle(self):
        sim, net = build()
        assert net.packets_in_flight == 0
        net.inject(Packet(src=0, dst=5, length=1, inject_cycle=0))
        assert net.packets_in_flight == 1
        sim.run_until_drained(500)
        assert net.packets_in_flight == 0

    def test_flits_moved_counts_all_traversals(self):
        sim, net = build()
        net.inject(Packet(src=0, dst=1, length=5, inject_cycle=0))
        sim.run_until_drained(500)
        assert net.flits_moved == 5 * 2  # 2 routers on a 1-hop path

    def test_idle_reflects_complete_quiescence(self):
        sim, net = build()
        assert net.idle()
        net.inject(Packet(src=0, dst=5, length=1, inject_cycle=0))
        assert not net.idle()
        sim.run_until_drained(500)
        assert net.idle()
