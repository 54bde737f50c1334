"""Failure-injection tests: the simulator must *detect* corrupted state,
not silently produce wrong results."""

import pytest

pytestmark = pytest.mark.chaos

from repro import build_simulation
from repro.noc.config import NocConfig
from repro.noc.flit import Packet
from repro.noc.topology import EAST
from repro.util.errors import SimulationError


def build(**kw):
    return build_simulation(NocConfig(width=4, height=4, **kw))


class TestCreditCorruption:
    def test_extra_credit_detected(self):
        sim, net = build()
        net.schedule_credit(2, 5, EAST, 1)
        with pytest.raises(SimulationError, match="credit overflow"):
            sim.run(5)

    def test_stolen_credits_trip_watchdog(self):
        sim, net = build()
        sim.WATCHDOG_CYCLES = 150
        net.inject(Packet(src=0, dst=3, length=1, inject_cycle=0))
        sim.step()
        for vc in range(net.config.total_vcs):
            net.routers[0].set_out_credits(EAST, vc, 0)
        with pytest.raises(SimulationError, match="no flit moved"):
            sim.run(1000)


class TestBufferMisuse:
    def test_phantom_body_flit_detected(self):
        sim, net = build()
        net.schedule_arrival(2, 5, EAST, 1, None)  # body with no packet
        with pytest.raises(SimulationError, match="body flit arrived at empty VC"):
            sim.run(5)

    def test_head_into_busy_vc_detected(self):
        sim, net = build()
        p1 = Packet(src=5, dst=6, length=5, inject_cycle=0)
        p2 = Packet(src=9, dst=6, length=1, inject_cycle=0)
        # Force both heads into the same VC via raw events.
        net.schedule_arrival(1, 6, EAST, 1, p1)
        net.schedule_arrival(2, 6, EAST, 1, p2)
        with pytest.raises(SimulationError, match="busy VC"):
            sim.run(5)

    def test_vnet_mismatch_detected(self):
        sim, net = build(num_vnets=2)
        pkt = Packet(src=5, dst=6, length=1, inject_cycle=0, vnet=1)
        # Deliver a vnet-1 packet into a vnet-0 VC.
        net.schedule_arrival(1, 6, EAST, 0, pkt)
        with pytest.raises(SimulationError, match="vnet"):
            sim.run(3)


class TestInjectionValidation:
    def test_all_invalid_packet_shapes_rejected(self):
        sim, net = build()
        bad = [
            Packet(src=-1, dst=0, length=1, inject_cycle=0),
            Packet(src=0, dst=16, length=1, inject_cycle=0),
            Packet(src=0, dst=1, length=9, inject_cycle=0),
            Packet(src=0, dst=1, length=1, inject_cycle=0, vnet=3),
        ]
        for pkt in bad:
            with pytest.raises(SimulationError):
                net.inject(pkt)
        # Nothing leaked into the queues.
        assert net.queued_packets() == 0
        assert net.packets_in_flight == 0

    def test_region_map_mismatch_rejected(self):
        from repro.core.regions import RegionMap
        from repro.noc.topology import MeshTopology
        from repro.routing import make_routing
        from repro.arbitration import make_policy
        from repro.noc.network import Network

        rm = RegionMap.halves(MeshTopology(8, 8))
        with pytest.raises(SimulationError, match="region map"):
            Network(NocConfig(width=4, height=4), make_routing("xy"),
                    make_policy("rr"), region_map=rm)


class TestRecoveryAbsence:
    def test_errors_are_not_swallowed_by_drain(self):
        """run_until_drained must propagate internal errors, not mask them."""
        sim, net = build()
        sim.WATCHDOG_CYCLES = 100
        net.inject(Packet(src=0, dst=3, length=1, inject_cycle=0))
        sim.step()
        for vc in range(net.config.total_vcs):
            net.routers[0].set_out_credits(EAST, vc, 0)
        with pytest.raises(SimulationError):
            sim.run_until_drained(5000)
