"""Unit tests for arbitration: the policy factory and STC's ranking."""

import pytest

from repro.arbitration import ArbitrationPolicy, StcPolicy, make_policy
from repro.core.rair import RairPolicy
from repro.util.errors import ConfigError


class TestFactory:
    def test_known_names(self):
        assert type(make_policy("rr")) is ArbitrationPolicy
        assert isinstance(make_policy("stc"), StcPolicy)
        assert isinstance(make_policy("rair"), RairPolicy)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("lottery")

    def test_rair_is_an_exact_name_not_a_prefix(self):
        with pytest.raises(ValueError, match="known: .*rair"):
            make_policy("rair_typo")


class TestPolicyFlags:
    def test_round_robin_uses_no_priority(self):
        p = make_policy("rr")
        assert p.va_out_top is None and p.sa_top is None


class TestStc:
    def test_parameters_validated(self):
        with pytest.raises(ConfigError):
            StcPolicy(rank_interval=0)
        with pytest.raises(ConfigError):
            StcPolicy(batch_period=-1)

    def test_batch_dominates_rank(self):
        policy = StcPolicy(batch_period=100)
        policy.ranks = {0: 0, 1: 5}

        class FakeVC:
            def __init__(self, inject, app):
                self.pkt = type("P", (), {"inject_cycle": inject, "app_id": app})()

        old_low_rank = FakeVC(inject=50, app=1)  # batch 0, bad rank
        new_high_rank = FakeVC(inject=150, app=0)  # batch 1, best rank
        assert policy._key(old_low_rank) < policy._key(new_high_rank)

    def test_rank_within_batch(self):
        policy = StcPolicy(batch_period=1000)
        policy.ranks = {0: 0, 1: 5}

        class FakeVC:
            def __init__(self, app):
                self.pkt = type("P", (), {"inject_cycle": 10, "app_id": app})()

        assert policy._key(FakeVC(0)) < policy._key(FakeVC(1))

    def test_unknown_app_ranks_worst(self):
        policy = StcPolicy()
        policy.ranks = {0: 3}

        class FakeVC:
            def __init__(self, app):
                self.pkt = type("P", (), {"inject_cycle": 0, "app_id": app})()

        assert policy._key(FakeVC(0)) < policy._key(FakeVC(42))

    def test_ranking_orders_by_intensity(self):
        policy = StcPolicy(rank_interval=100)

        class FakeNet:
            app_flits_injected = {0: 500, 1: 100, 2: 300}

        policy.end_network_cycle(FakeNet(), cycle=100)
        # Least intensive app gets rank 0 (highest priority).
        assert policy.ranks == {1: 0, 2: 1, 0: 2}

    def test_ranking_uses_interval_delta_not_totals(self):
        policy = StcPolicy(rank_interval=100)

        class FakeNet:
            app_flits_injected = {0: 500, 1: 100}

        policy.end_network_cycle(FakeNet(), cycle=100)
        # Next interval: app0 goes quiet, app1 bursts.
        FakeNet.app_flits_injected = {0: 510, 1: 400}
        policy.end_network_cycle(FakeNet(), cycle=200)
        assert policy.ranks == {0: 0, 1: 1}

    def test_no_rank_update_off_interval(self):
        policy = StcPolicy(rank_interval=100)

        class FakeNet:
            app_flits_injected = {0: 1}

        policy.end_network_cycle(FakeNet(), cycle=50)
        assert policy.ranks == {}

