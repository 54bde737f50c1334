"""Property-based tests for arbitration fairness and each scheme's priority rule.

:func:`rotating_pick` is the rotating-priority rule written over candidate
lists; it is the oracle the router's bitmask arbitration is held to below.
"""

import math
from collections import Counter

from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro import build_simulation
from repro.arbitration.base import rotating_bit
from repro.arbitration.stc import StcPolicy
from repro.core.dpa import DpaConfig
from repro.core.rair import RairPolicy
from repro.core.vc_regionalization import preferred_class
from repro.noc.config import NocConfig, VcClass
from repro.noc.flit import Packet


def rotating_pick(candidates, id_of, ptr: int, modulo: int, priority_of=None):
    """``(winner, new_ptr)``: the best ``priority_of`` key (lower wins, if
    given), ties to the slot ``id_of(c)`` closest at or after ``ptr`` mod
    ``modulo``; ``new_ptr`` is one past the winner's slot."""
    def key(cand):
        rot = (id_of(cand) - ptr) % modulo
        return (priority_of(cand), rot) if priority_of is not None else rot

    best = min(candidates, key=key)
    return best, (id_of(best) + 1) % modulo


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


class FakeRouter:
    def __init__(self, native_high):
        self.native_high = native_high


ids = st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=8, unique=True)


@given(ids, st.integers(min_value=0, max_value=15))
def test_winner_is_always_a_candidate(candidate_ids, ptr):
    winner, new_ptr = rotating_pick(candidate_ids, lambda x: x, ptr, 16)
    assert winner in candidate_ids
    assert 0 <= new_ptr < 16


@given(ids)
@settings(max_examples=50)
def test_long_run_fairness(candidate_ids):
    """With a fixed candidate set, rotating pick serves all equally."""
    ptr = 0
    wins = Counter()
    rounds = 40 * len(candidate_ids)
    for _ in range(rounds):
        winner, ptr = rotating_pick(candidate_ids, lambda x: x, ptr, 16)
        wins[winner] += 1
    counts = [wins[c] for c in candidate_ids]
    assert max(counts) - min(counts) <= max(2, rounds // len(candidate_ids) // 4)


@given(ids, st.integers(min_value=0, max_value=15))
def test_priority_class_never_loses_to_lower_class(candidate_ids, ptr):
    if len(candidate_ids) < 2:
        return
    privileged = set(candidate_ids[: len(candidate_ids) // 2])
    winner, _ = rotating_pick(
        candidate_ids, lambda x: x, ptr, 16,
        priority_of=lambda c: 0 if c in privileged else 1,
    )
    assert winner in privileged


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_dpa_static_modes_ignore_counters(n, f):
    router = FakeRouter(native_high=True)
    router.ovc_n, router.ovc_f = n, f
    RairPolicy(dpa=DpaConfig(mode="native")).end_router_cycle(router, 1)
    assert router.native_high
    router = FakeRouter(native_high=False)
    router.ovc_n, router.ovc_f = n, f
    RairPolicy(dpa=DpaConfig(mode="foreign")).end_router_cycle(router, 1)
    assert not router.native_high


# -- the router's mask pick vs rotating_pick ------------------------------------
#
# The router arbitrates on bitmasks over its flat VC keys: the policy
# reduces the candidate mask to its top priority class (``va_out_top`` /
# ``sa_top``; ``None`` leaves the stage round-robin), ``rotating_bit``
# rotates from the pointer. These properties hold that composition to
# ``rotating_pick`` over the same candidates, keyed by each scheme's
# published rule as written in ``published_key`` (not read from the
# policy), at all three contested stages, on a real router under every
# policy.

MASK_SCHEMES = ("rr", "stc", "rair")
_ROUTERS = {}


def _router_for(scheme):
    """One real 4x4-mesh router per policy, reused across examples (each
    example sets every piece of state its keys read)."""
    if scheme not in _ROUTERS:
        _, net = build_simulation(NocConfig(width=4, height=4), scheme=scheme, routing="xy")
        _ROUTERS[scheme] = net.routers[5]
    return _ROUTERS[scheme]


@st.composite
def arbitration_state(draw):
    """(scheme, router, candidate keys) with random per-candidate packets,
    native/foreign tags, DPA bit and STC ranks."""
    scheme = draw(st.sampled_from(MASK_SCHEMES))
    router = _router_for(scheme)
    num_keys = router.num_ports * router.total_vcs
    keys = draw(st.lists(st.integers(0, num_keys - 1), min_size=1, max_size=num_keys,
                         unique=True))
    router.native_high = draw(st.booleans())
    router.native_mask = 0
    for key in keys:
        vc = router.vcs[key]
        vc.pkt = Packet(
            src=0, dst=1, length=1,
            inject_cycle=draw(st.integers(0, 1200)),  # three STC batches, many ages
            app_id=draw(st.integers(0, 3)),
        )
        vc.is_native = draw(st.booleans())
        if vc.is_native:
            router.native_mask |= vc.bit
    policy = router.network.policy
    if isinstance(policy, StcPolicy):
        policy.ranks = draw(st.dictionaries(st.integers(0, 3), st.integers(0, 3)))
    return scheme, router, sorted(keys)


def published_key(scheme, router, out_vc=None):
    """The scheme's priority key (lower wins) at VA_out for output VC
    ``out_vc``, or at both SA steps when it is None; None for round-robin.

    STC: the oldest batch, then the best rank, an unranked app last.
    RAIR (Sections IV.A-B): a global VC favours foreign requesters, an
    escape VC ties everyone, and a regional VC and both SA steps favour
    the side DPA names (``native_high``).
    """
    policy = router.network.policy
    if scheme == "stc":
        return lambda v: (
            v.pkt.inject_cycle // policy.batch_period,
            policy.ranks.get(v.pkt.app_id, math.inf),
        )
    if scheme == "rair":
        cls = None if out_vc is None else router.vc_class_of[out_vc]
        if cls is VcClass.GLOBAL:
            return lambda v: v.is_native
        if cls is VcClass.ESCAPE:
            return lambda v: 0
        return lambda v: v.is_native != router.native_high
    return None


def _sa_top(router, mask):
    top = router.network.policy.sa_top
    return mask if top is None else top(router, mask)


def _mask_of(router, keys):
    return sum(router.vcs[k].bit for k in keys)


@given(arbitration_state(), st.data())
@settings(max_examples=300, deadline=None)
def test_sa_in_mask_pick_equals_rotating_pick(state, data):
    scheme, router, keys = state
    total = router.total_vcs
    port = keys[0] // total
    keys = [k for k in keys if k // total == port]  # one input port's VCs
    ptr = data.draw(st.integers(0, total - 1))
    winner, new_ptr = rotating_pick(
        [router.vcs[k] for k in keys], lambda v: v.vc, ptr, total,
        published_key(scheme, router),
    )
    base = port * total
    bit = rotating_bit(_sa_top(router, _mask_of(router, keys)) >> base, ptr)
    assert bit.bit_length() - 1 == winner.vc
    assert bit.bit_length() % total == new_ptr


@given(arbitration_state(), st.data())
@settings(max_examples=300, deadline=None)
def test_sa_out_mask_pick_equals_rotating_pick(state, data):
    scheme, router, keys = state
    total = router.total_vcs
    keys = list({k // total: k for k in keys}.values())  # one SA_in winner per port
    ptr = data.draw(st.integers(0, router.num_ports - 1))
    winner, new_ptr = rotating_pick(
        [router.vcs[k] for k in keys], lambda v: v.port, ptr, router.num_ports,
        published_key(scheme, router),
    )
    bit = rotating_bit(_sa_top(router, _mask_of(router, keys)), ptr * total)
    key = bit.bit_length() - 1
    assert router.vcs[key] is winner
    assert (key // total + 1) % router.num_ports == new_ptr


@given(arbitration_state(), st.data())
@settings(max_examples=300, deadline=None)
def test_va_out_mask_pick_equals_rotating_pick(state, data):
    scheme, router, keys = state
    top = router.network.policy.va_out_top
    total = router.total_vcs
    num_keys = router.num_ports * total
    out_vc = data.draw(st.integers(0, total - 1))
    ptr = data.draw(st.integers(0, num_keys - 1))
    winner, new_ptr = rotating_pick(
        [router.vcs[k] for k in keys], lambda v: v.port * total + v.vc, ptr, num_keys,
        published_key(scheme, router, out_vc),
    )
    mask = _mask_of(router, keys)
    if top is not None:
        mask = top(router, out_vc, mask)
    bit = rotating_bit(mask, ptr)
    assert router.vcs[bit.bit_length() - 1] is winner
    assert bit.bit_length() % num_keys == new_ptr


# -- VA_in: the free-VC mask walk vs the option-list form ---------------------
#
# ``Router.va_request`` walks the ranked ports, ANDs ``out_free`` with the
# admissible mask and lets ``choose_vc`` pick a bit. The reference below is
# the list form it replaced, written out here: option list from owners and
# credits (``va_options``), first port with options, RAIR's class filter,
# ``rotating_pick`` over the VC index — pointer advanced only if it rotated.

_VA_ROUTERS = {}


def _va_router_for(scheme):
    """An interior router of an adaptively routed mesh: two candidate ports."""
    if scheme not in _VA_ROUTERS:
        _, net = build_simulation(NocConfig(width=4, height=4), scheme=scheme, routing="local")
        _VA_ROUTERS[scheme] = net.routers[5]
    return _VA_ROUTERS[scheme]


def _list_form_request(router, invc, class_preference):
    options = router.va_options(invc)
    if not options:
        return None
    port = options[0][0]
    port_options = [o for o in options if o[0] == port]
    if class_preference is not None and len(port_options) > 1:
        want = class_preference(invc.is_native)
        preferred = [o for o in port_options if router.vc_class_of[o[1]] is want]
        if preferred:
            port_options = preferred
    if len(port_options) > 1:
        winner, router.va_req_ptr[port] = rotating_pick(
            port_options, lambda o: o[1], router.va_req_ptr[port], router.total_vcs
        )
        return winner
    return port_options[0]


def _both_forms(data, class_preference_of):
    scheme = data.draw(st.sampled_from(MASK_SCHEMES))
    router = _va_router_for(scheme)
    total, depth = router.total_vcs, router.vc_depth
    owner = object()
    for port in range(router.num_ports):
        for vc in range(total):
            router.out_owner[port][vc] = data.draw(st.sampled_from((None, None, owner)))
            router.set_out_credits(port, vc, data.draw(st.sampled_from((0, depth - 1, depth, depth))))
    invc = router.in_vcs[data.draw(st.integers(0, router.num_ports - 1))][0]
    invc.pkt = Packet(src=0, dst=data.draw(st.integers(0, 15)), length=1, inject_cycle=0)
    invc.is_native = data.draw(st.booleans())
    invc.route_ports = None
    ptrs = [data.draw(st.integers(0, total - 1)) for _ in range(router.num_ports)]
    try:
        router.va_req_ptr[:] = ptrs
        expected = _list_form_request(router, invc, class_preference_of(scheme))
        expected_ptrs = list(router.va_req_ptr)
        router.va_req_ptr[:] = ptrs
        req = router.va_request(invc)
        got = None if req < 0 else divmod(req, total)
        return expected, expected_ptrs, got, list(router.va_req_ptr)
    finally:
        invc.pkt = None


@given(st.data())
@settings(max_examples=600, deadline=None)
def test_va_in_mask_request_equals_list_form(data):
    expected, expected_ptrs, got, ptrs = _both_forms(
        data, lambda scheme: preferred_class if scheme.startswith("rair") else None
    )
    assert got == expected
    assert ptrs == expected_ptrs


def test_va_in_reference_notices_a_flipped_class_preference():
    """Mutation check: the same comparison fails against a reference that
    prefers the *other* class, so the property above does pin RAIR's rule."""
    def flipped(scheme):
        return (lambda native: preferred_class(not native)) if scheme.startswith("rair") else None

    def disagrees(data):
        expected, _, got, _ = _both_forms(data, flipped)
        return got != expected

    find(st.data(), disagrees)
