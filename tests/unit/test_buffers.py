"""Unit tests for the InputVC state machine.

The per-packet transitions are InputVC methods; the two per-flit ones
(body arrival, flit departure) live in their single callers,
``Network.deliver_events`` and ``Network.send_flit``, and are driven
through those on one VC of a small network.
"""

import pytest

from repro import build_simulation
from repro.noc.buffers import VC_ACTIVE, VC_IDLE, VC_VA, InputVC
from repro.noc.config import NocConfig, VcClass
from repro.noc.flit import Packet
from repro.util.errors import SimulationError

EAST = 1  # input port of node 0 the driven VC sits on
OUT = (2, 1)  # (out_port, out_vc) it is granted


def make_vc(**kw):
    defaults = dict(node=0, port=1, vc=0, vnet=0, vc_class=VcClass.GLOBAL, is_escape=True)
    defaults.update(kw)
    return InputVC(**defaults)


def make_pkt(length=3, vnet=0, **kw):
    return Packet(src=0, dst=5, length=length, inject_cycle=0, vnet=vnet, **kw)


class DrivenVC:
    """One input VC of a real router, with the kernel's per-flit events."""

    def __init__(self):
        _, self.net = build_simulation(NocConfig(width=4, height=4), scheme="rr", routing="xy")
        self.router = self.net.routers[0]
        self.vc = self.router.in_vcs[EAST][0]

    def head_arrive(self, pkt, cycle):
        self.net.schedule_arrival(cycle, 0, EAST, 0, pkt)
        self.net.deliver_events(cycle)

    def body_arrive(self, cycle):
        self.net.schedule_arrival(cycle, 0, EAST, 0, None)
        self.net.deliver_events(cycle)

    def grant(self, cycle):
        self.router._grant(self.vc, OUT[0] * self.router.total_vcs + OUT[1], cycle)

    def send_flit(self, cycle):
        self.net.send_flit(self.router, self.vc, cycle)


class TestHeadArrival:
    def test_head_moves_idle_to_va(self):
        vc = make_vc()
        vc.head_arrive(make_pkt(), cycle=10, native=True)
        assert vc.state == VC_VA
        assert vc.va_ready == 11
        assert vc.occupancy() == 1
        assert vc.is_native

    def test_head_on_busy_vc_rejected(self):
        vc = make_vc()
        vc.head_arrive(make_pkt(), cycle=10, native=True)
        with pytest.raises(SimulationError):
            vc.head_arrive(make_pkt(), cycle=11, native=True)

    def test_wrong_vnet_rejected(self):
        vc = make_vc(vnet=1)
        with pytest.raises(SimulationError):
            vc.head_arrive(make_pkt(vnet=0), cycle=0, native=True)

    def test_foreign_classification_cached(self):
        vc = make_vc()
        vc.head_arrive(make_pkt(), cycle=0, native=False)
        assert not vc.is_native


class TestBodyArrival:
    def test_body_increments_occupancy(self):
        d = DrivenVC()
        d.head_arrive(make_pkt(length=3), cycle=0)
        d.body_arrive(1)
        d.body_arrive(2)
        assert d.vc.occupancy() == 3
        assert d.vc.flits_recv == 3

    def test_body_on_empty_vc_rejected(self):
        d = DrivenVC()
        with pytest.raises(SimulationError):
            d.body_arrive(0)

    def test_too_many_flits_rejected(self):
        d = DrivenVC()
        d.head_arrive(make_pkt(length=1), cycle=0)
        with pytest.raises(SimulationError):
            d.body_arrive(1)


class TestPipelineGates:
    def test_wants_va_respects_ready_cycle(self):
        vc = make_vc()
        vc.head_arrive(make_pkt(), cycle=5, native=True)
        assert not vc.wants_va(5)  # same cycle as buffer write
        assert vc.wants_va(6)

    def test_grant_requires_va_state(self):
        vc = make_vc()
        with pytest.raises(SimulationError):
            vc.grant_vc(2, 1, cycle=0)

    def test_grant_moves_to_active_with_setup_delay(self):
        vc = make_vc()
        vc.head_arrive(make_pkt(), cycle=0, native=True)
        vc.grant_vc(2, 1, cycle=1)
        assert vc.state == VC_ACTIVE
        assert (vc.out_port, vc.out_vc) == (2, 1)
        assert vc.sa_ready == 2

    def test_wants_sa_gates(self):
        vc = make_vc()
        vc.head_arrive(make_pkt(), cycle=0, native=True)
        vc.grant_vc(2, 1, cycle=1)
        assert not vc.wants_sa(1)  # sa_ready not reached
        assert vc.wants_sa(2)  # flit arrived at 0 < 2, sa_ready == 2

    def test_wants_sa_needs_buffered_flit_from_earlier_cycle(self):
        d = DrivenVC()
        d.head_arrive(make_pkt(length=2), cycle=0)
        d.grant(cycle=1)
        d.send_flit(2)
        # Second flit arrives *in* cycle 2 -> not eligible until cycle 3.
        d.body_arrive(2)
        assert not d.vc.wants_sa(2)
        assert d.vc.wants_sa(3)


class TestSendAndRelease:
    def test_tail_releases_vc(self):
        d = DrivenVC()
        d.head_arrive(make_pkt(length=2), cycle=0)
        d.body_arrive(1)
        d.grant(cycle=1)
        d.send_flit(2)
        assert d.vc.state == VC_ACTIVE
        d.send_flit(3)
        assert d.vc.state == VC_IDLE
        assert d.vc.pkt is None
        assert d.vc.occupancy() == 0
        assert d.vc.route_ports is None

    def test_send_from_empty_buffer_rejected(self):
        d = DrivenVC()
        d.head_arrive(make_pkt(length=2), cycle=0)
        d.grant(cycle=1)
        d.send_flit(2)
        with pytest.raises(SimulationError):
            d.send_flit(3)  # second flit never arrived

    def test_release_with_flits_buffered_rejected(self):
        vc = make_vc()
        vc.head_arrive(make_pkt(length=1), cycle=0, native=True)
        with pytest.raises(SimulationError):
            vc.release()

    def test_released_vc_accepts_new_packet(self):
        d = DrivenVC()
        d.head_arrive(make_pkt(length=1), cycle=0)
        d.grant(cycle=1)
        d.send_flit(2)
        d.head_arrive(make_pkt(length=1), cycle=5)
        assert d.vc.state == VC_VA
        assert not d.vc.is_native  # no region map: everything is foreign
