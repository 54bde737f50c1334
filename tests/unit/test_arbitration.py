"""Unit tests for arbitration: rotating_pick and the policy priority keys."""

import pytest

from repro.arbitration import (
    AgeBasedPolicy,
    ArbitrationPolicy,
    RoundRobinPolicy,
    StcPolicy,
    make_policy,
    rotating_pick,
)
from repro.core.rair import RairPolicy
from repro.util.errors import ConfigError


class TestRotatingPick:
    def test_single_candidate(self):
        winner, ptr = rotating_pick([7], id_of=lambda x: x, ptr=0, modulo=10)
        assert winner == 7
        assert ptr == 8

    def test_round_robin_cycles_fairly(self):
        cands = [0, 1, 2, 3]
        ptr = 0
        winners = []
        for _ in range(8):
            w, ptr = rotating_pick(cands, lambda x: x, ptr, 4)
            winners.append(w)
        assert winners == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_pointer_skips_absent_candidates(self):
        w, ptr = rotating_pick([2, 3], lambda x: x, ptr=0, modulo=4)
        assert w == 2
        w, ptr = rotating_pick([1, 3], lambda x: x, ptr=ptr, modulo=4)
        assert w == 3  # closest at/after pointer 3

    def test_priority_dominates_rotation(self):
        # Candidate 3 has better (lower) priority than 0 even though the
        # pointer favours 0.
        prio = {0: 5, 3: 1}
        w, _ = rotating_pick([0, 3], lambda x: x, ptr=0, modulo=4, priority_of=prio.get)
        assert w == 3

    def test_rotation_breaks_priority_ties(self):
        prio = {1: 0, 2: 0}
        w, ptr = rotating_pick([1, 2], lambda x: x, ptr=2, modulo=4, priority_of=prio.get)
        assert w == 2  # pointer at 2 favours slot 2 among equals
        w, _ = rotating_pick([1, 2], lambda x: x, ptr=ptr, modulo=4, priority_of=prio.get)
        assert w == 1


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_policy("rr"), RoundRobinPolicy)
        assert isinstance(make_policy("ro_rr"), RoundRobinPolicy)
        assert isinstance(make_policy("age"), AgeBasedPolicy)
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
        p = RoundRobinPolicy()
        assert not p.uses_va_priority and not p.uses_sa_priority

    def test_age_uses_priority_everywhere(self):
        p = AgeBasedPolicy()
        assert p.uses_va_priority and p.uses_sa_priority

    def test_base_policy_priority_keys_are_constant(self):
        p = ArbitrationPolicy()
        assert p.va_out_priority(None, None, None) == 0
        assert p.sa_priority(None, None) == 0


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


class TestAgePriority:
    def test_older_packet_wins(self):
        p = AgeBasedPolicy()

        class FakeVC:
            def __init__(self, inject):
                self.pkt = type("P", (), {"inject_cycle": inject})()

        old, new = FakeVC(5), FakeVC(50)
        assert p.va_out_priority(None, None, old) < p.va_out_priority(None, None, new)
        assert p.sa_priority(None, old) < p.sa_priority(None, new)
