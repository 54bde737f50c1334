"""Unit tests for the runtime invariant guard's building blocks.

Covers the pieces that do not need a live simulation: the wait-graph
cycle finder, :class:`~repro.noc.guard.GuardConfig` (mode defaults,
validation), and the blackbox's ring-buffer /
tee trace plumbing from :mod:`repro.noc.trace`.
"""

from __future__ import annotations

import pytest

from repro.noc.guard import GuardConfig, RuntimeGuard, find_cycle
from repro.noc.trace import RecordingTrace, TeeTrace
from repro.util.errors import ConfigError


class TestFindCycle:
    def test_simple_two_node_cycle(self):
        cycle = find_cycle({"a": ["b"], "b": ["a"]})
        assert cycle is not None
        assert sorted(cycle) == ["a", "b"]

    def test_self_loop(self):
        assert find_cycle({"x": ["x"]}) == ["x"]

    def test_acyclic_chain_returns_none(self):
        assert find_cycle({"a": ["b"], "b": ["c"], "c": []}) is None

    def test_edge_to_unknown_node_is_not_a_cycle(self):
        # Targets that never appear as keys are terminal (e.g. a VC whose
        # blocker is draining, not itself blocked).
        assert find_cycle({"a": ["b", "c"]}) is None

    def test_cycle_reachable_only_from_a_tail(self):
        cycle = find_cycle({"t": ["a"], "a": ["b"], "b": ["c"], "c": ["a"]})
        assert cycle is not None
        assert sorted(cycle) == ["a", "b", "c"]
        assert "t" not in cycle  # the tail is blocked *on* the cycle, not in it

    def test_diamond_without_cycle(self):
        edges = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}
        assert find_cycle(edges) is None

    def test_returns_cycle_in_order(self):
        cycle = find_cycle({1: [2], 2: [3], 3: [1]})
        # Consecutive entries must actually be wait-graph edges.
        edges = {1: [2], 2: [3], 3: [1]}
        for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
            assert dst in edges[src]

    def test_empty_graph(self):
        assert find_cycle({}) is None


class TestGuardConfig:
    def test_mode_defaults(self):
        sample = GuardConfig(mode="sample")
        strict = GuardConfig(mode="strict")
        # strict checks more often and keeps a deeper blackbox
        assert strict.period < sample.period
        assert strict.depth > sample.depth

    def test_explicit_overrides_win(self):
        cfg = GuardConfig(mode="strict", check_period=7, blackbox_depth=3)
        assert cfg.period == 7
        assert cfg.depth == 3

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            GuardConfig(mode="paranoid")

    def test_rejects_nonpositive_knobs(self):
        with pytest.raises(ConfigError):
            GuardConfig(mode="sample", check_period=0)
        with pytest.raises(ConfigError):
            GuardConfig(mode="strict", stall_cycles=-1)

    def test_runtime_guard_refuses_off(self):
        # GuardConfig(mode="off") itself is legal (the disarmed token);
        # building a RuntimeGuard from it is a caller bug.
        with pytest.raises(ConfigError):
            RuntimeGuard(GuardConfig(mode="off"), "t")


class TestBoundedRecordingTrace:
    def test_bounded_eviction(self):
        ring = RecordingTrace(depth=3)
        for cycle in range(5):
            ring.wake(cycle, node=0)
        assert len(ring.events) == 3
        assert [e[1] for e in ring.events] == [2, 3, 4]

    def test_event_tuples_match_recording_trace_shape(self):
        ring, rec = RecordingTrace(depth=16), RecordingTrace()
        for sink in (ring, rec):
            sink.va_grant(1, node=0, in_port=2, in_vc=1, out_port=4, out_vc=3, pid=7)
            sink.sa_win(2, node=0, in_port=2, in_vc=1, out_port=4, pid=7)
            sink.flit_send(2, node=0, out_port=4, out_vc=3, pid=7, is_tail=False)
            sink.credit_return(3, node=1, port=2, vc=3)
            sink.wake(4, node=1)
            sink.sleep(5, node=1)
            sink.dpa_flip(6, node=1, native_high=True, ovc_n=2, ovc_f=0)
        assert list(ring.events) == list(rec.events)

    def test_depth_is_maxlen_and_default_is_unbounded(self):
        assert RecordingTrace(depth=256).events.maxlen == 256
        assert RecordingTrace().events == []


class TestTeeTrace:
    def test_fans_out_to_both_in_order(self):
        first, second = RecordingTrace(), RecordingTrace()
        tee = TeeTrace(first, second)
        tee.wake(1, node=3)
        tee.sleep(2, node=3)
        assert first.events == second.events
        assert [e[0] for e in first.events] == ["wake", "sleep"]

    def test_first_stream_unperturbed(self):
        # The obs collector must see exactly what it would have seen alone.
        alone = RecordingTrace()
        alone.credit_return(9, node=2, port=1, vc=0)
        teed = RecordingTrace()
        TeeTrace(teed, RecordingTrace(depth=2)).credit_return(9, node=2, port=1, vc=0)
        assert teed.events == alone.events
