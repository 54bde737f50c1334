"""Unit tests for VC regionalization's VA_in preference and class counts."""

from repro.core.vc_regionalization import preferred_class, vc_class_counts
from repro.noc.config import NocConfig, VcClass


class TestPreferredClass:
    def test_foreign_prefers_global(self):
        assert preferred_class(is_native=False) is VcClass.GLOBAL

    def test_native_prefers_regional(self):
        assert preferred_class(is_native=True) is VcClass.REGIONAL


class TestCounts:
    def test_default_split(self):
        assert vc_class_counts(NocConfig()) == (2, 2)

    def test_skewed_split(self):
        cfg = NocConfig(
            vc_classes=(VcClass.GLOBAL, VcClass.GLOBAL, VcClass.GLOBAL, VcClass.REGIONAL)
        )
        assert vc_class_counts(cfg) == (3, 1)
