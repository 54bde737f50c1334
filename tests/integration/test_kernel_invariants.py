"""Cross-check the event-driven kernel against the brute-force scan.

The wake-mask kernel (``Router.va_pending`` / ``va_parked`` /
``sa_pending`` / ``sa_hold`` / ``out_free`` and the network's active-router
set) is an optimization over the old poll-every-VC kernel and must agree
with it: ``do_sa`` and ``va_request`` no longer re-test anything, so the
masks have to name exactly the VCs the brute-force eligibility scans would
schedule or allocate. These tests step
real simulations under random regional traffic and re-derive every
router's schedulable state from scratch, comparing it to the
incrementally maintained masks.

Invariants checked between cycles (``cycle`` = the next cycle to run):

1. VA partition — the keys in ``va_pending`` and ``va_parked`` are
   disjoint and their union is exactly the set of VCs in VA state.
2. Parked means stuck — every parked VC has an empty ``va_options`` set
   (nothing allocatable until a credit returns or an owner releases), and
   the mask walk agrees: ``va_request`` finds nothing either.
3. SA exactness — ``sa_pending & ~sa_hold`` is exactly the set the old
   kernel's eligibility test (``wants_sa`` + credit check) schedules:
   sampled at every ``do_sa`` entry, where the router consumes it, and
   between cycles for the cycle to come (``sa_hold`` is empty by then,
   and always a subset of ``sa_pending``).
4. SA liveness of entries — everything in ``sa_pending`` is an ACTIVE VC
   (owns a downstream VC); retired VCs never linger.
5. Active set — the network's active-router set is exactly the routers
   holding at least one packet, and ``busy_vcs`` agrees with a recount.
6. Free output VCs — ``out_free[port]`` is exactly the output VCs that are
   unowned and (off the ejection port) hold all their credits, recounted
   from ``out_owner`` / ``out_credits``: sampled at every ``do_va`` entry,
   where the router requests from it, and between cycles.
   No missed wake — every parked VC's bit is in ``parked_on[p]`` for each
   of its route ports ``p``, so whichever of them frees a VC re-arms it:
   sampled at the same points.
7. Scheduled events — ``scheduled_arrivals()`` / ``scheduled_credits()``
   report what a shadow log of the sends, kept in ``(node, port, vc)``
   terms from the topology tables, says is in flight.
"""

from __future__ import annotations

import pytest

from repro import build_simulation
from repro.core.regions import RegionMap
from repro.noc.buffers import VC_ACTIVE
from repro.noc.config import NocConfig
from repro.noc.router import Router
from repro.noc.topology import LOCAL, MeshTopology, make_topology
from repro.traffic.patterns import UniformPattern
from repro.traffic.regional import RegionalAppTraffic
from repro.traffic.synthetic import BimodalLengths, SyntheticTrafficSource

CHECK_EVERY = 7  # co-prime with the congestion period so phases interleave


def _check_router_invariants(net, cycle):
    """Assert invariants 1-4 and 6 for every router, 5 for the network."""
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
            assert router.va_request(invc) == -1, (
                f"node {router.node} key {key}: parked with a live mask request"
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
        # 6. the free-output-VC masks are exactly the allocatable VCs, and
        # a parked VC is registered on every port that could free one
        _check_out_free(router, cycle)
        _check_parked_on(router, cycle)
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


def _check_out_free(router, cycle):
    depth = router.vc_depth
    for port in range(router.num_ports):
        owners, credits = router.out_owner[port], router.out_credits[port]
        recount = sum(
            1 << vc
            for vc in range(router.total_vcs)
            if owners[vc] is None and (port == LOCAL or credits[vc] == depth)
        )
        assert router.out_free[port] == recount, (
            f"node {router.node} port {port} cycle {cycle}: out_free says "
            f"{router.out_free[port]:#b}, owners/credits say {recount:#b}"
        )


def _check_parked_on(router, cycle):
    for key in router.parked_va_keys():
        for port in router.vcs[key].route_ports:
            assert router.parked_on[port] >> key & 1, (
                f"node {router.node} key {key} cycle {cycle}: parked, but not "
                f"registered on its route port {port}"
            )


@pytest.fixture(autouse=True)
def masks_checked_at_entry(monkeypatch):
    """Invariants 3 and 6 where they matter: on entry to ``do_sa`` / ``do_va``."""
    do_sa, do_va = Router.do_sa, Router.do_va

    def checked_sa(router, cycle):
        _check_sa_exact(router, cycle)
        do_sa(router, cycle)

    def checked_va(router, cycle):
        _check_out_free(router, cycle)
        _check_parked_on(router, cycle)
        do_va(router, cycle)

    monkeypatch.setattr(Router, "do_sa", checked_sa)
    monkeypatch.setattr(Router, "do_va", checked_va)


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


def _fabric_sim(kind, routing):
    size = {"mesh": (4, 4), "torus": (4, 4), "ring": (12, 1)}[kind]
    cfg = NocConfig.for_topology(kind, width=size[0], height=size[1])
    topo = make_topology(cfg)
    sim, net = build_simulation(cfg, scheme="ro_rr", routing=routing)
    sim.add_traffic(
        SyntheticTrafficSource(
            nodes=range(topo.num_nodes),
            rate=0.3 if kind == "ring" else 0.5,
            pattern=UniformPattern(topo),
            app_id=0,
            seed=13,
            lengths=BimodalLengths(),
        )
    )
    return sim, net


@pytest.mark.parametrize("routing", ["xy", "local", "dbar"])
@pytest.mark.parametrize("kind", ["mesh", "torus", "ring"])
def test_free_vc_masks_match_recount_on_every_fabric(kind, routing):
    # Saturating load: VCs park, drain and re-free constantly, on fabrics
    # with one and with two escape classes.
    sim, net = _fabric_sim(kind, routing)
    parked_seen = False
    for _ in range(300):
        sim.step()
        if sim.cycle % CHECK_EVERY == 0:
            _check_router_invariants(net, sim.cycle)
            parked_seen |= any(r.va_parked for r in net.routers)
    assert net.stats.packets_ejected > 0
    assert parked_seen, "load too light to park a VC: invariant 2 went unexercised"


def test_scheduled_events_match_a_parent_layout_recount(monkeypatch):
    # The guard's credit conservation reads scheduled_arrivals() /
    # scheduled_credits(). Shadow every send in the (node, port, vc) terms
    # the event queues used to be written in — neighbour and opposite-port
    # tables, not the pre-wired links — and compare mid-run.
    sim, net = _regional_sim("rair", "local", rate=0.25, seed=5)
    topo, cfg = net.topology, net.config
    flits, credits = [], []
    send_flit = type(net).send_flit

    def shadowed(self, router, invc, cycle):
        node, out_port, out_vc = router.node, invc.out_port, invc.out_vc
        head = invc.pkt if invc.flits_sent == 0 else None
        if invc.port != LOCAL:
            credits.append((cycle + cfg.credit_latency, topo.neighbor[node][invc.port],
                            topo.opposite[invc.port], invc.vc))
        if out_port != LOCAL:
            flits.append((cycle + cfg.link_latency, topo.neighbor[node][out_port],
                          topo.opposite[out_port], out_vc, head))
        send_flit(self, router, invc, cycle)

    monkeypatch.setattr(type(net), "send_flit", shadowed)
    compared = 0
    for _ in range(300):
        sim.step()
        now = sim.cycle  # events for cycles >= now are still scheduled
        link_flits = [e for e in net.scheduled_arrivals() if e[2] != LOCAL]
        assert sorted(link_flits, key=_event_key) == sorted(
            (e for e in flits if e[0] >= now), key=_event_key
        )
        assert sorted(net.scheduled_credits()) == sorted(e for e in credits if e[0] >= now)
        compared += len(link_flits)
    assert compared > 1000


def _event_key(event):
    cycle, node, port, vc, pkt = event
    return (cycle, node, port, vc, -1 if pkt is None else pkt.pid)


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
