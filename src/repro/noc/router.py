"""Canonical pipelined virtual-channel router with an event-driven kernel.

Pipeline model (per flit, under no contention)::

    cycle t   : link arrival + buffer write (+ routing computation)
    cycle t+1 : VC allocation   (VA_in then VA_out)
    cycle t+2 : switch allocation (SA_in then SA_out) + switch traversal
    cycle t+2+L: arrival at the next router after L link cycles

i.e. a 3-stage router plus link — the canonical RC/VA/SA/ST/LT pipeline
with RC folded into the buffer-write cycle and ST into the SA-winner's
cycle, the usual lookahead/speculation-free compression. All contention
points the paper's MSP mechanism targets (VA_out, SA_in, SA_out) are
modelled as explicit per-cycle arbitrations through the installed
:class:`~repro.arbitration.base.ArbitrationPolicy`.

Scheduling is event-driven rather than polled: instead of scanning every
input VC every cycle, the router keeps explicit wake masks —

``va_pending`` / ``va_parked`` / ``parked_on``
    Every VC in VA state is in exactly one of the first two. ``do_va``
    walks ``va_pending`` in ascending (port, vc) key order; a VC whose
    option set is empty (every admissible downstream VC owned or not fully
    drained) is *parked*, and its bit is registered in ``parked_on[p]``
    for each of its route ports ``p``. It is re-armed only when one of
    those ports gains an allocatable VC — see :meth:`wake_parked`.
``sa_pending`` / ``sa_hold``
    ``sa_pending`` is *exactly* the ACTIVE VCs with a flit buffered and a
    credit to send it on; ``sa_hold`` is the subset that only becomes
    sendable next cycle (granted by VA, or refilled, this cycle). So
    ``do_sa`` starts from ``sa_pending & ~sa_hold`` and never re-tests
    arrivals, credits or ``sa_ready``: the events that change them keep
    the masks (VA grant here; flit and credit delivery and the send
    itself in :mod:`repro.noc.network`).
``out_free``
    Per output port, the *allocatable* output VCs as bits over the VC
    index: unowned and (on a link port) fully drained. VA_in requests
    from ``out_free[port] & admissible mask`` instead of listing options;
    the grant, an ejection tail and the last credit back to an unowned VC
    are the only events that change it, and the last two — the only ones
    that add a bit — wake the VCs parked on that port.

The wake masks are integers over the flat VC key ``port * total_vcs + vc``:
arming and retiring are single OR/AND-NOT operations, re-arming the VCs
parked on a port is one AND and one OR, and the lowest bit first is the (port, vc) lexicographic
order of a full scan. The VA grant also binds the VC's link handles
(``InputVC.down`` / ``credit_row``), so each flit of the packet-hop is
sent without looking up the downstream VC or the credit row again.
Arbitration runs on the same masks: the policy's ``va_out_top`` /
``sa_top`` reduces a contested candidate mask to its top priority class
(``None`` leaves the stage round-robin) and
:func:`~repro.arbitration.base.rotating_bit` rotates from the pointer. The
invariants are cross-checked against the brute-force ``wants_va`` /
``wants_sa`` / :meth:`Router.va_options` oracles in
``tests/integration/test_kernel_invariants.py``.

Per-router RAIR state lives here so the policy hot path is field access:
``app_id`` (from the region map), the DPA occupied-VC counters ``ovc_n`` /
``ovc_f`` and the mask of native-occupied VCs ``native_mask`` (updated on
head arrival and tail departure — the "status of all VCs in a router" rule
of Section IV.C — which also raise ``ovc_dirty`` for the DPA hook), and the
DPA output bit ``native_high`` (written by the policy's end-of-cycle hook,
read by the next cycle's arbitrations). Per-VC config lookups the
arbitration inner loops need (``vc_class_of``) are precomputed tuples for
the same reason.
"""

from __future__ import annotations

from repro.arbitration.base import rotating_bit
from repro.noc.buffers import VC_VA, InputVC
from repro.noc.config import NocConfig, VcClass
from repro.noc.topology import LOCAL

__all__ = ["Router"]


def _vc_set(vcs: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """``vcs`` as ``(bitmask over the VC index, the tuple itself)``."""
    return sum(1 << vc for vc in vcs), vcs


def _mask_keys(mask: int) -> list[int]:
    """Decode a wake-list bitmask into its ascending list of VC keys."""
    keys = []
    while mask:
        low = mask & -mask
        keys.append(low.bit_length() - 1)
        mask ^= low
    return keys


class Router:
    """One router; all state is local except the network backref."""

    __slots__ = (
        "node",
        "config",
        "network",
        "num_ports",
        "total_vcs",
        "app_id",
        "in_vcs",
        "vcs",
        "vc_class_of",
        "vc_depth",
        "out_owner",
        "out_credits",
        "out_free",
        "out_links",
        "va_ptr",
        "sa_in_ptr",
        "sa_out_ptr",
        "va_req_ptr",
        "busy_vcs",
        "va_pending",
        "va_parked",
        "parked_on",
        "sa_pending",
        "sa_hold",
        "vcs_local",
        "vcs_adaptive",
        "vcs_escape_port",
        "class_mask",
        "ovc_n",
        "ovc_f",
        "native_high",
        "native_mask",
        "ovc_dirty",
    )

    def __init__(self, node: int, config: NocConfig, network, app_id: int):
        self.node = node
        self.config = config
        self.network = network
        num_ports = network.topology.num_ports
        self.num_ports = num_ports
        self.total_vcs = config.total_vcs
        self.app_id = app_id
        self.in_vcs = [
            [
                InputVC(
                    node,
                    port,
                    vc,
                    config.vc_vnet(vc),
                    config.vc_class(vc),
                    config.is_escape_vc(vc),
                    port * self.total_vcs + vc,
                    self,
                )
                for vc in range(self.total_vcs)
            ]
            for port in range(num_ports)
        ]
        # Flat view indexed by the wake-list key (port * total_vcs + vc),
        # plus per-VC config constants the arbitration inner loops need.
        self.vcs = [invc for port_vcs in self.in_vcs for invc in port_vcs]
        self.vc_class_of = tuple(config.vc_class(vc) for vc in range(self.total_vcs))
        self.class_mask = tuple(
            sum(1 << vc for vc, c in enumerate(self.vc_class_of) if c is cls)
            for cls in VcClass
        )
        self.vc_depth = config.vc_depth
        # Admissible output VCs per vnet, each as ``(mask, VCs in request
        # order)`` — see admissible_vcs: every vnet VC on the ejection
        # port; the adaptive VCs on a link port; adaptive first, then the
        # escape VC of one dateline class, on the escape port. The config
        # has one escape VC per class: one on a mesh, two on wrap fabrics.
        self.vcs_local, self.vcs_adaptive, self.vcs_escape_port = [], [], []
        for vnet in range(config.num_vnets):
            r = config.vnet_vcs(vnet)
            first = r.start + config.escape_vcs
            adaptive = tuple(range(first, r.stop))
            self.vcs_local.append(_vc_set(tuple(r)))
            self.vcs_adaptive.append(_vc_set(adaptive))
            self.vcs_escape_port.append(
                tuple(_vc_set(adaptive + (esc,)) for esc in range(r.start, first))
            )
        self.out_owner = [[None] * self.total_vcs for _ in range(num_ports)]
        self.out_credits = [[config.vc_depth] * self.total_vcs for _ in range(num_ports)]
        self.out_free = [(1 << self.total_vcs) - 1] * num_ports
        # Per output port, the downstream input port's InputVC row (all
        # None without a link: the ejection port, a fabric edge); wired by
        # the Network once every router exists.
        self.out_links = [(None,) * self.total_vcs] * num_ports
        self.va_ptr = [0] * (num_ports * self.total_vcs)
        self.sa_in_ptr = [0] * num_ports
        self.sa_out_ptr = [0] * num_ports
        self.va_req_ptr = [0] * num_ports
        self.busy_vcs = 0
        # Wake masks (see module docstring).
        self.va_pending = 0
        self.va_parked = 0
        # Per output port, the VCs that parked with it among their route
        # ports (a superset: woken VCs are dropped lazily).
        self.parked_on = [0] * num_ports
        self.sa_pending = 0
        self.sa_hold = 0
        # DPA state (paper Section IV.C); policies may ignore it.
        self.ovc_n = 0
        self.ovc_f = 0
        self.native_high = False
        self.native_mask = 0
        self.ovc_dirty = False

    # -- wake-mask maintenance ------------------------------------------------------
    def wake_parked(self, port: int) -> None:
        """Re-arm the VA-parked VCs that could request an output VC of ``port``.

        Called when ``out_free[port]`` gains a bit — the last credit back
        to an unowned link VC, or an ejection tail — the only two events
        that can turn an empty VA option set non-empty, and then only for
        VCs routed through ``port``. Every bit of ``parked_on[port]`` is
        now either woken or no longer parked, so the row is cleared.
        Waking is conservative (the walk re-checks options), so a stale
        bit costs a rescan, never correctness.
        """
        woken = self.parked_on[port] & self.va_parked
        self.parked_on[port] = 0
        if woken:
            self.va_pending |= woken
            self.va_parked ^= woken

    def _park(self, invc: InputVC) -> None:
        """Register a VC whose VA request found nothing in ``parked_on`` of each route port."""
        bit = invc.bit
        parked_on = self.parked_on
        for p in invc.route_ports:
            parked_on[p] |= bit

    # -- VC allocation ------------------------------------------------------------
    def set_out_credits(self, port: int, vc: int, n: int) -> None:
        """Overwrite one credit counter, keeping ``out_free`` true to it.

        The seam for fault injection (chaos, tests): the kernel's own
        credit arithmetic lives in the network's send/credit events.
        """
        self.out_credits[port][vc] = n
        free = self.out_owner[port][vc] is None and (port == LOCAL or n == self.vc_depth)
        self.out_free[port] = self.out_free[port] & ~(1 << vc) | free << vc

    def admissible_vcs(self, invc: InputVC, port: int) -> tuple[int, tuple[int, ...]]:
        """Output VCs of ``port`` a routed VA-state VC may request: ``(mask, order)``.

        The single statement of VA admissibility. Ejection: the escape
        restriction is moot, any VC of the vnet. Link port: the adaptive
        VCs — and, only on the escape (dimension-order) port (Duato
        deadlock freedom), after them the escape VCs of the hop's dateline
        class.
        """
        vnet = invc.pkt.vnet
        if port == LOCAL:
            return self.vcs_local[vnet]
        if port == invc.escape_port:
            return self.vcs_escape_port[vnet][invc.escape_class]
        return self.vcs_adaptive[vnet]

    def _route(self, invc: InputVC) -> tuple[int, ...]:
        """RC stage, once per head: cache the packet's ports and escape hop on the VC."""
        ports, invc.escape_port, invc.escape_class = self.network.routing.route(
            self.node, invc.pkt
        )
        invc.route_ports = ports
        return ports

    def va_options(self, invc: InputVC) -> list[tuple[int, int]]:
        """Allocatable ``(out_port, out_vc)`` pairs for a VA-state VC.

        The brute-force oracle for :meth:`va_request`, recounted from
        ``out_owner`` / ``out_credits`` (atomic VCs, Table 1: a downstream
        VC may only be reallocated once its owner released *and* all its
        credits are back). Off the per-cycle path: the invariant tests and
        the guard's wait-graph call it. Ports appear in the routing
        algorithm's preference order and, within a port, in
        :meth:`admissible_vcs` order.
        """
        ports = invc.route_ports or self._route(invc)
        if len(ports) > 1:
            ports = self.network.routing.rank_ports(self.node, invc.pkt, ports)
        depth = self.vc_depth
        options: list[tuple[int, int]] = []
        for p in ports:
            owner_p = self.out_owner[p]
            credits_p = self.out_credits[p]
            for vc in self.admissible_vcs(invc, p)[1]:
                if owner_p[vc] is None and (p == LOCAL or credits_p[vc] == depth):
                    options.append((p, vc))
        return options

    def va_request(self, invc: InputVC) -> int:
        """VA_in: the output VC ``invc`` requests, as ``port * total_vcs + vc``.

        The best-ranked admissible port with a free admissible VC, and the
        policy's pick among those VCs; -1 when every admissible VC is
        owned or draining (only a credit return or an owner release
        changes that, so the caller parks the VC).
        """
        network = self.network
        ports = invc.route_ports or self._route(invc)
        if len(ports) > 1:
            ports = network.routing.rank_ports(self.node, invc.pkt, ports)
        out_free = self.out_free
        for p in ports:
            mask = out_free[p]
            if mask:
                mask &= self.admissible_vcs(invc, p)[0]
                if mask:
                    return p * self.total_vcs + network.policy.choose_vc(self, invc, p, mask)
        return -1

    def do_va(self, cycle: int) -> None:
        """Run VA_in (request selection) and VA_out (grant) for this cycle."""
        mask = self.va_pending
        if not mask:
            return
        vcs = self.vcs
        if not (mask & (mask - 1)):
            # Lone VA candidate: its request is granted unopposed, so skip
            # the request grouping. va_request still runs the policy's
            # choose_vc, which advances the rotation pointer exactly as on
            # the general path.
            invc = vcs[mask.bit_length() - 1]
            if cycle < invc.va_ready:
                return
            req = self.va_request(invc)
            if req < 0:
                self.va_pending = 0
                self.va_parked |= mask
                self._park(invc)
            else:
                self._grant(invc, req, cycle)
            return
        # Walk port by port, shifting each port's submask down to a small
        # int — bit tricks on the narrow masks stay single-word, and the
        # (port, vc) ascending order of a full scan is preserved.
        # requests: out_port * total_vcs + out_vc -> mask of requesting VC
        # keys, in first-request order (grants, and their trace events,
        # follow it).
        requests: dict[int, int] = {}
        total = self.total_vcs
        port_all = (1 << total) - 1
        base = 0
        while mask >> base:
            pm = (mask >> base) & port_all
            parks = 0
            while pm:
                low = pm & -pm
                pm ^= low
                invc = vcs[base + low.bit_length() - 1]
                # Pending invariant: state is VC_VA. A VC armed this cycle
                # (head just arrived) waits out its buffer-write cycle here.
                if cycle < invc.va_ready:
                    continue
                req = self.va_request(invc)
                if req < 0:
                    parks |= low
                    self._park(invc)
                else:
                    requests[req] = requests.get(req, 0) | invc.bit
            if parks:
                parks <<= base
                self.va_pending ^= parks
                self.va_parked |= parks
            base += total
        top_class = self.network.policy.va_out_top  # None: round-robin
        num_keys = self.num_ports * total
        for req, won in requests.items():
            if won & (won - 1):
                # VA_out: top priority class, then rotate over the VC keys.
                if top_class is not None:
                    won = top_class(self, req % total, won)
                won = rotating_bit(won, self.va_ptr[req])
                self.va_ptr[req] = won.bit_length() % num_keys
            self._grant(vcs[won.bit_length() - 1], req, cycle)

    def _grant(self, invc: InputVC, req: int, cycle: int) -> None:
        """VA_out grants ``invc`` the output VC ``req``; SA may pick it next cycle."""
        p, vc = divmod(req, self.total_vcs)
        self.out_owner[p][vc] = invc
        self.out_free[p] &= ~(1 << vc)
        invc.grant_vc(p, vc, cycle)
        # Link handles for every flit of this packet-hop (send_flit).
        invc.down = self.out_links[p][vc]
        invc.credit_row = self.out_credits[p]
        # A head flit is buffered and a freshly allocated VC has all its
        # credits, so the VC is sendable — from next cycle (sa_ready).
        bit = invc.bit
        self.va_pending &= ~bit
        self.sa_pending |= bit
        self.sa_hold |= bit
        tr = self.network.trace
        if tr is not None:
            tr.va_grant(cycle, self.node, invc.port, invc.vc, p, vc, invc.pkt.pid)

    # -- switch allocation -----------------------------------------------------------
    def do_sa(self, cycle: int) -> None:
        """Run SA_in and SA_out; winners traverse the switch this cycle."""
        mask = self.sa_pending & ~self.sa_hold
        self.sa_hold = 0
        if not mask:
            return
        vcs = self.vcs
        network = self.network
        tr = network.trace
        if not (mask & (mask - 1)):
            # Lone sendable VC (the common case away from saturation):
            # both SA steps are uncontested.
            invc = vcs[mask.bit_length() - 1]
            if tr is not None:
                tr.sa_win(cycle, self.node, invc.port, invc.vc, invc.out_port, invc.pkt.pid)
            network.send_flit(self, invc, cycle)
            return
        top_class = network.policy.sa_top  # None: round-robin
        # SA_in: one winner represents each input port. sa_out: out_port ->
        # mask of the winners' keys, in first-request order (sends, and
        # the events they schedule, follow it).
        sa_out: dict[int, int] = {}
        total = self.total_vcs
        port_all = (1 << total) - 1
        base = 0
        port = 0
        while mask:
            pm = mask & port_all
            if pm:
                if pm & (pm - 1):
                    if top_class is not None:
                        pm = top_class(self, pm << base) >> base
                    pm = rotating_bit(pm, self.sa_in_ptr[port])
                    self.sa_in_ptr[port] = pm.bit_length() % total
                pm <<= base
                op = vcs[pm.bit_length() - 1].out_port
                sa_out[op] = sa_out.get(op, 0) | pm
            mask >>= total
            base += total
            port += 1
        for out_port, won in sa_out.items():
            if won & (won - 1):
                # SA_out: at most one contender per input port, so rotating
                # over the keys from the pointer's port rotates over ports.
                if top_class is not None:
                    won = top_class(self, won)
                won = rotating_bit(won, self.sa_out_ptr[out_port] * total)
                self.sa_out_ptr[out_port] = (
                    (won.bit_length() - 1) // total + 1
                ) % self.num_ports
            winner = vcs[won.bit_length() - 1]
            if tr is not None:
                tr.sa_win(cycle, self.node, winner.port, winner.vc, out_port, winner.pkt.pid)
            network.send_flit(self, winner, cycle)

    # -- introspection --------------------------------------------------------------
    def pending_va_keys(self) -> list[int]:
        """Ascending VC keys currently armed for VA (tests/debugging)."""
        return _mask_keys(self.va_pending)

    def parked_va_keys(self) -> list[int]:
        """Ascending VC keys parked waiting for a VA resource event."""
        return _mask_keys(self.va_parked)

    def pending_sa_keys(self) -> list[int]:
        """Ascending VC keys currently armed for SA (tests/debugging)."""
        return _mask_keys(self.sa_pending)

    def buffered_flits(self) -> int:
        """Total flits currently buffered across all input VCs."""
        return sum(invc.occupancy() for port in self.in_vcs for invc in port)

    def occupied_vcs(self) -> tuple[int, int]:
        """Recount (native, foreign) occupied VCs from scratch (for checks)."""
        n = f = 0
        for port in self.in_vcs:
            for invc in port:
                if invc.pkt is not None:
                    if invc.is_native:
                        n += 1
                    else:
                        f += 1
        return n, f

    def scan_va_state(self) -> set[int]:
        """Brute-force recount of all VA-state VC keys (for checks)."""
        return {key for key, invc in enumerate(self.vcs) if invc.state == VC_VA}

    def scan_sa_eligible(self, cycle: int) -> set[int]:
        """Brute-force recount of SA-schedulable VC keys (for checks).

        Mirrors the old polling kernel's eligibility test exactly: VC-local
        pipeline conditions (:meth:`InputVC.wants_sa`) plus the router's
        credit check.
        """
        eligible = set()
        for key, invc in enumerate(self.vcs):
            if invc.wants_sa(cycle):
                op = invc.out_port
                if op == LOCAL or self.out_credits[op][invc.out_vc] > 0:
                    eligible.add(key)
        return eligible

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Router(node={self.node}, app={self.app_id}, busy={self.busy_vcs})"
