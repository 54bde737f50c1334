"""Unit tests for Packet and message classes."""

from repro.noc.flit import (
    LONG_PACKET_FLITS,
    SHORT_PACKET_FLITS,
    MessageClass,
    Packet,
)


class TestPacket:
    def test_ids_are_unique_and_increasing(self):
        a = Packet(src=0, dst=1, length=1, inject_cycle=0)
        b = Packet(src=0, dst=1, length=1, inject_cycle=0)
        assert b.pid > a.pid

    def test_defaults(self):
        p = Packet(src=3, dst=9, length=5, inject_cycle=42)
        assert p.app_id == -1
        assert p.vnet == 0
        assert not p.is_global
        assert not p.is_adversarial
        assert p.hops == 0 and not p.in_pool

    def test_fields_round_trip(self):
        p = Packet(
            src=1,
            dst=2,
            length=5,
            inject_cycle=7,
            app_id=3,
            vnet=1,
            is_global=True,
            is_adversarial=True,
        )
        assert (p.src, p.dst, p.length, p.inject_cycle) == (1, 2, 5, 7)
        assert (p.app_id, p.vnet) == (3, 1)
        assert p.is_global and p.is_adversarial

    def test_slots_prevent_stray_attributes(self):
        p = Packet(src=0, dst=1, length=1, inject_cycle=0)
        try:
            p.color = "red"
            assert False, "Packet should use __slots__"
        except AttributeError:
            pass

    def test_repr_contains_endpoints(self):
        p = Packet(src=5, dst=9, length=1, inject_cycle=0, app_id=2)
        text = repr(p)
        assert "5->9" in text and "app2" in text


class TestMessageClass:
    def test_paper_packet_lengths(self):
        # 16B short packet = 1 flit; 64B + head = 5 flits on 128-bit links.
        assert SHORT_PACKET_FLITS == 1
        assert LONG_PACKET_FLITS == 5

    def test_request_and_data_share_vnet_zero(self):
        assert int(MessageClass.REQUEST) == 0
        assert int(MessageClass.DATA) == 0
        assert int(MessageClass.REPLY) == 1
