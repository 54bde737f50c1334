"""Unit tests for NocConfig."""

import pytest

from repro.noc.config import DEFAULT_VC_CLASSES, LINK_BITS, NocConfig, VcClass
from repro.noc.topology import TOPOLOGY_KINDS
from repro.util.errors import ConfigError


class TestDefaults:
    def test_paper_table1_defaults(self):
        cfg = NocConfig()
        assert cfg.width == cfg.height == 8
        assert cfg.num_nodes == 64
        # 4 data VCs (Table 1) + 1 additional escape VC (Section IV.D).
        assert len(cfg.vc_classes) == 4
        assert cfg.escape_vcs == 1
        assert cfg.vcs_per_vnet == 5
        assert cfg.vc_depth == 5
        assert LINK_BITS == 128
        assert cfg.max_packet_flits == 5

    def test_default_vc_split_is_even(self):
        glob = sum(1 for c in DEFAULT_VC_CLASSES if c is VcClass.GLOBAL)
        assert glob == len(DEFAULT_VC_CLASSES) - glob

    def test_describe_mentions_key_facts(self):
        text = NocConfig().describe()
        assert "8x8" in text
        assert "2 global / 2 regional" in text


class TestValidation:
    def test_rejects_tiny_mesh(self):
        with pytest.raises(ConfigError):
            NocConfig(width=1)

    def test_rejects_zero_vnets(self):
        with pytest.raises(ConfigError):
            NocConfig(num_vnets=0)

    def test_rejects_empty_vc_classes(self):
        with pytest.raises(ConfigError):
            NocConfig(vc_classes=())

    def test_rejects_non_vcclass_entries(self):
        with pytest.raises(ConfigError):
            NocConfig(vc_classes=(0, 1))

    def test_rejects_packet_longer_than_buffer(self):
        # Atomic VCs: a packet must fit in one VC buffer.
        with pytest.raises(ConfigError):
            NocConfig(vc_depth=3, max_packet_flits=5)

    def test_rejects_nonpositive_latencies(self):
        with pytest.raises(ConfigError):
            NocConfig(link_latency=0)
        with pytest.raises(ConfigError):
            NocConfig(credit_latency=0)


class TestVcIndexing:
    @pytest.fixture
    def cfg(self):
        return NocConfig(num_vnets=2)

    def test_total_vcs(self, cfg):
        assert cfg.total_vcs == 10
        assert cfg.vcs_per_vnet == 5

    def test_vc_vnet_mapping(self, cfg):
        assert [cfg.vc_vnet(v) for v in range(10)] == [0] * 5 + [1] * 5

    def test_vnet_vcs_ranges(self, cfg):
        assert list(cfg.vnet_vcs(0)) == [0, 1, 2, 3, 4]
        assert list(cfg.vnet_vcs(1)) == [5, 6, 7, 8, 9]

    def test_vc_class_repeats_per_vnet(self, cfg):
        for vnet in range(2):
            base = vnet * 5
            assert cfg.vc_class(base + 0) is VcClass.ESCAPE
            assert cfg.vc_class(base + 1) is VcClass.GLOBAL
            assert cfg.vc_class(base + 2) is VcClass.GLOBAL
            assert cfg.vc_class(base + 3) is VcClass.REGIONAL
            assert cfg.vc_class(base + 4) is VcClass.REGIONAL

    def test_escape_vc_is_first_of_each_vnet(self, cfg):
        escapes = [v for v in range(cfg.total_vcs) if cfg.is_escape_vc(v)]
        assert escapes == [0, 5]

    def test_custom_split(self):
        cfg = NocConfig(
            vc_classes=(VcClass.GLOBAL, VcClass.REGIONAL, VcClass.REGIONAL, VcClass.REGIONAL)
        )
        assert cfg.vc_class(0) is VcClass.ESCAPE
        assert cfg.vc_class(1) is VcClass.GLOBAL
        assert sum(cfg.vc_class(v) is VcClass.REGIONAL for v in range(5)) == 3

    def test_escape_not_allowed_in_data_classes(self):
        with pytest.raises(ConfigError):
            NocConfig(vc_classes=(VcClass.ESCAPE, VcClass.GLOBAL))

    def test_at_least_one_escape_required(self):
        assert min(NocConfig(topology=kind).escape_vcs for kind in TOPOLOGY_KINDS) >= 1

    def test_frozen(self):
        cfg = NocConfig()
        with pytest.raises(AttributeError):
            cfg.width = 16
