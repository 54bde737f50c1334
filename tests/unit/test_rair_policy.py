"""Unit tests for the RAIR policy's priority rules (no network needed)."""

import pytest

from repro.core.dpa import DpaConfig
from repro.core.msp import Stage
from repro.core.rair import RairPolicy
from repro.noc.config import VcClass


class FakeRouter:
    def __init__(self, native_high=False):
        self.native_high = native_high
        self.ovc_n = 0
        self.ovc_f = 0
        self.ovc_dirty = True  # the counters changed since the last DPA update


class FakeVC:
    def __init__(self, native):
        self.is_native = native


class TestConstruction:
    def test_default_is_full_rair(self):
        p = RairPolicy()
        assert p.uses_va_priority and p.uses_sa_priority
        assert p.name == "ra_rair"
        assert p.dpa.mode == "dynamic"

    def test_va_only_variant(self):
        p = RairPolicy(stages=Stage.VA)
        assert p.uses_va_priority and not p.uses_sa_priority
        assert p.name == "rair_va"

    def test_static_variants_named(self):
        assert "nativeH" in RairPolicy(dpa=DpaConfig(mode="native")).name
        assert "foreignH" in RairPolicy(dpa=DpaConfig(mode="foreign")).name

    def test_stage_type_checked(self):
        with pytest.raises(TypeError):
            RairPolicy(stages="va")


class TestVaOutPriority:
    def test_global_vc_always_prefers_foreign(self):
        p = RairPolicy()
        for nh in (True, False):
            router = FakeRouter(native_high=nh)
            kf = p.va_out_priority(router, VcClass.GLOBAL, FakeVC(native=False))
            kn = p.va_out_priority(router, VcClass.GLOBAL, FakeVC(native=True))
            assert kf < kn

    def test_regional_vc_follows_dpa(self):
        p = RairPolicy()
        router = FakeRouter(native_high=True)
        assert p.va_out_priority(router, VcClass.REGIONAL, FakeVC(True)) < p.va_out_priority(
            router, VcClass.REGIONAL, FakeVC(False)
        )
        router = FakeRouter(native_high=False)
        assert p.va_out_priority(router, VcClass.REGIONAL, FakeVC(False)) < p.va_out_priority(
            router, VcClass.REGIONAL, FakeVC(True)
        )


class TestSaPriority:
    def test_sa_follows_dpa(self):
        p = RairPolicy()
        router = FakeRouter(native_high=True)
        assert p.sa_priority(router, FakeVC(True)) < p.sa_priority(router, FakeVC(False))
        router = FakeRouter(native_high=False)
        assert p.sa_priority(router, FakeVC(False)) < p.sa_priority(router, FakeVC(True))


class TestDpaUpdate:
    def test_dynamic_mode_updates_state(self):
        p = RairPolicy()
        router = FakeRouter(native_high=False)
        router.ovc_n, router.ovc_f = 2, 10
        p.end_router_cycle(router, cycle=1)
        assert router.native_high

    def test_static_native_never_updates(self):
        p = RairPolicy(dpa=DpaConfig(mode="native"))
        router = FakeRouter(native_high=True)
        router.ovc_n, router.ovc_f = 10, 0  # would flip under dynamic mode
        p.end_router_cycle(router, cycle=1)
        assert router.native_high

    def test_static_foreign_never_updates(self):
        p = RairPolicy(dpa=DpaConfig(mode="foreign"))
        router = FakeRouter(native_high=False)
        router.ovc_n, router.ovc_f = 0, 10
        p.end_router_cycle(router, cycle=1)
        assert not router.native_high

    def test_attach_initializes_routers(self):
        class FakeNet:
            routers = [FakeRouter(), FakeRouter()]

        p = RairPolicy(dpa=DpaConfig(mode="native"))
        p.attach(FakeNet())
        assert all(r.native_high for r in FakeNet.routers)

        p2 = RairPolicy()  # dynamic: starts foreign-high (paper default)
        p2.attach(FakeNet())
        assert not any(r.native_high for r in FakeNet.routers)
