"""Unit tests for the RAIR policy's stages and DPA hook (no network needed).

The priority rules themselves are held to the paper's statement on a real
router by tests/property/test_arbitration_props.py.
"""

import pytest

from repro.core.dpa import DpaConfig
from repro.core.msp import Stage
from repro.core.rair import RairPolicy


class FakeRouter:
    def __init__(self, native_high=False):
        self.native_high = native_high
        self.ovc_n = 0
        self.ovc_f = 0
        self.ovc_dirty = True  # the counters changed since the last DPA update


class TestConstruction:
    def test_default_is_full_rair(self):
        p = RairPolicy()
        assert p.va_out_top is not None and p.sa_top is not None
        assert p.dpa.mode == "dynamic"

    def test_va_only_variant(self):
        p = RairPolicy(stages=Stage.VA)
        assert p.va_out_top is not None and p.sa_top is None

    def test_stage_type_checked(self):
        with pytest.raises(TypeError):
            RairPolicy(stages="va")


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
