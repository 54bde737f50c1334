"""Cross-check the event-driven kernel against the brute-force scan.

The wake-mask kernel (``Router.va_pending`` / ``va_parked`` /
``sa_pending`` / ``sa_hold`` and the network's active-router set) is an
optimization over the old poll-every-VC kernel and must agree with it:
``do_sa`` no longer re-tests anything, so the masks have to name exactly
the VCs the brute-force eligibility scan would schedule. These tests step
real simulations under random regional traffic and re-derive every
router's schedulable state from scratch, comparing it to the
incrementally maintained masks.

Invariants checked between cycles (``cycle`` = the next cycle to run):

1. VA partition — the keys in ``va_pending`` and ``va_parked`` are
   disjoint and their union is exactly the set of VCs in VA state.
2. Parked means stuck — every parked VC has an empty ``va_options`` set
   (nothing allocatable until a credit returns or an owner releases).
3. SA exactness — ``sa_pending & ~sa_hold`` is exactly the set the old
   kernel's eligibility test (``wants_sa`` + credit check) schedules:
   sampled at every ``do_sa`` entry, where the router consumes it, and
   between cycles for the cycle to come (``sa_hold`` is empty by then,
   and always a subset of ``sa_pending``).
4. SA liveness of entries — everything in ``sa_pending`` is an ACTIVE VC
   (owns a downstream VC); retired VCs never linger.
5. Active set — the network's active-router set is exactly the routers
   holding at least one packet, and ``busy_vcs`` agrees with a recount.
"""

from __future__ import annotations

import pytest

from repro import build_simulation
from repro.core.regions import RegionMap
from repro.noc.buffers import VC_ACTIVE
from repro.noc.config import NocConfig
from repro.noc.router import Router
from repro.noc.topology import MeshTopology
from repro.traffic.regional import RegionalAppTraffic

CHECK_EVERY = 7  # co-prime with the congestion period so phases interleave


def _check_router_invariants(net, cycle):
    """Assert invariants 1-4 for every router, 5 for the network."""
    for router in net.routers:
        pending = set(router.pending_va_keys())
        parked = set(router.parked_va_keys())
        # 1. pending/parked partition the VA-state VCs
        assert not (pending & parked), f"node {router.node}: VA key in both lists"
        assert pending | parked == router.scan_va_state(), (
            f"node {router.node} cycle {cycle}: wake lists disagree with VA scan"
        )
        # 2. parked VCs really have nothing to request
        for key in parked:
            invc = router.vcs[key]
            assert router.va_options(invc) == [], (
                f"node {router.node} key {key}: parked with live options"
            )
        # 3. the masks are exactly the SA-schedulable VCs
        assert router.sa_hold == 0, f"node {router.node}: hold bits outlived do_sa"
        _check_sa_exact(router, cycle)
        sa_pending = set(router.pending_sa_keys())
        # 4. armed SA entries are ACTIVE VCs
        for key in sa_pending:
            assert router.vcs[key].state == VC_ACTIVE, (
                f"node {router.node} key {key}: retired VC still armed for SA"
            )
    # 5. the active set is exactly the busy routers
    busy = [r.node for r in net.routers if r.busy_vcs]
    assert net.active_nodes() == busy
    for router in net.routers:
        n, f = router.occupied_vcs()
        assert router.busy_vcs == n + f


def _check_sa_exact(router, cycle):
    assert router.sa_hold & ~router.sa_pending == 0, (
        f"node {router.node} cycle {cycle}: hold bit without its pending bit"
    )
    sendable = router.sa_pending & ~router.sa_hold
    eligible = router.scan_sa_eligible(cycle)
    assert sendable == sum(1 << key for key in eligible), (
        f"node {router.node} cycle {cycle}: masks say {sendable:#b}, "
        f"scan says keys {sorted(eligible)}"
    )


@pytest.fixture(autouse=True)
def sa_checked_at_entry(monkeypatch):
    """Invariant 3 where it matters: on entry to every ``do_sa`` call."""
    do_sa = Router.do_sa

    def checked(router, cycle):
        _check_sa_exact(router, cycle)
        do_sa(router, cycle)

    monkeypatch.setattr(Router, "do_sa", checked)


def _regional_sim(scheme, routing, rate, seed):
    cfg = NocConfig(width=8, height=8)
    regions = RegionMap.quadrants(MeshTopology(8, 8))
    sim, net = build_simulation(cfg, region_map=regions, scheme=scheme, routing=routing)
    for app in range(regions.num_apps):
        sim.add_traffic(RegionalAppTraffic(regions, app, rate=rate, seed=seed + app))
    return sim, net


@pytest.mark.parametrize(
    "scheme, routing, rate",
    [
        ("ro_rr", "xy", 0.10),
        ("rair", "local", 0.15),
        ("rair", "dbar", 0.25),
        ("stc", "local", 0.30),
    ],
)
def test_wake_lists_match_brute_force_scan(scheme, routing, rate):
    sim, net = _regional_sim(scheme, routing, rate, seed=11)
    for _ in range(400):
        sim.step()
        if sim.cycle % CHECK_EVERY == 0:
            _check_router_invariants(net, sim.cycle)
    # The workload must actually have exercised the kernel.
    assert net.flits_moved > 0
    assert net.stats.packets_ejected > 0


def test_invariants_hold_through_drain():
    # Stop injecting and let the network empty: retirements and sleeps
    # dominate, the opposite regime from the steady-state test above.
    sim, net = _regional_sim("rair", "local", rate=0.3, seed=23)
    for _ in range(200):
        sim.step()
    sim.traffic_sources.clear()
    drained_at = None
    for _ in range(3000):
        sim.step()
        if sim.cycle % CHECK_EVERY == 0:
            _check_router_invariants(net, sim.cycle)
        if net.idle() and not net.busy_routers():
            drained_at = sim.cycle
            break
    assert drained_at is not None, "network failed to drain"
    assert net.active_nodes() == []
    for router in net.routers:
        assert router.va_pending == 0
        assert router.va_parked == 0
        assert router.sa_pending == 0
        assert router.sa_hold == 0
