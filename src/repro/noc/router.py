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

``va_pending`` / ``va_parked``
    Every VC in VA state is in exactly one of the two. ``do_va`` walks
    ``va_pending`` in ascending (port, vc) key order; a VC whose option
    set is empty (every admissible downstream VC owned or not fully
    drained) is *parked* and re-armed only when this router's resources
    change (a credit returns or an output VC's owner releases) — see
    :meth:`wake_parked`.
``sa_pending`` / ``sa_hold``
    ``sa_pending`` is *exactly* the ACTIVE VCs with a flit buffered and a
    credit to send it on; ``sa_hold`` is the subset that only becomes
    sendable next cycle (granted by VA, or refilled, this cycle). So
    ``do_sa`` starts from ``sa_pending & ~sa_hold`` and never re-tests
    arrivals, credits or ``sa_ready``: the events that change them keep
    the masks (VA grant here; flit and credit delivery and the send
    itself in :mod:`repro.noc.network`).

The masks are integers over the flat VC key ``port * total_vcs + vc``:
arming and retiring are single OR/AND-NOT operations, re-arming all parked
VCs is one OR, and the lowest bit first is the (port, vc) lexicographic
order of a full scan. Arbitration runs on the same masks: the policy
reduces a contested candidate mask to its top priority class and
:func:`~repro.arbitration.base.rotating_bit` rotates from the pointer. The
invariants are cross-checked against the brute-force ``wants_va`` /
``wants_sa`` oracle in ``tests/integration/test_kernel_invariants.py``.

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
from repro.noc.config import NocConfig
from repro.noc.topology import LOCAL

__all__ = ["Router"]


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
        "va_ptr",
        "sa_in_ptr",
        "sa_out_ptr",
        "va_req_ptr",
        "busy_vcs",
        "va_pending",
        "va_parked",
        "sa_pending",
        "sa_hold",
        "_vnet_range",
        "_first_data_vc",
        "_vnet_vcs_t",
        "_adaptive_vcs",
        "_escape_sets",
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
                )
                for vc in range(self.total_vcs)
            ]
            for port in range(num_ports)
        ]
        # Flat view indexed by the wake-list key (port * total_vcs + vc),
        # plus per-VC config constants the arbitration inner loops need.
        self.vcs = [invc for port_vcs in self.in_vcs for invc in port_vcs]
        self.vc_class_of = tuple(config.vc_class(vc) for vc in range(self.total_vcs))
        self.vc_depth = config.vc_depth
        self._vnet_range = [config.vnet_vcs(v) for v in range(config.num_vnets)]
        self._first_data_vc = [r.start + config.escape_vcs for r in self._vnet_range]
        # Candidate VC sets per vnet as tuples: the VA option walk iterates
        # them every head-flit residency, and a prebuilt tuple beats
        # re-materialising range objects in the hot loop.
        self._vnet_vcs_t = [tuple(r) for r in self._vnet_range]
        self._adaptive_vcs = [
            tuple(range(first, r.stop))
            for r, first in zip(self._vnet_range, self._first_data_vc)
        ]
        # Escape VCs grouped by dateline class: _escape_sets[vnet][cls] are
        # the escape VCs a packet of that vnet may request when its current
        # escape hop carries dateline class cls. One class on a mesh (the
        # set is all escape VCs, as before the topology layer); wrap
        # fabrics stripe their escape VCs round-robin across two classes.
        ncls = network.topology.num_escape_classes
        self._escape_sets = [
            tuple(
                tuple(range(r.start + c, first, ncls))
                for c in range(ncls)
            )
            for r, first in zip(self._vnet_range, self._first_data_vc)
        ]
        self.out_owner = [[None] * self.total_vcs for _ in range(num_ports)]
        self.out_credits = [[config.vc_depth] * self.total_vcs for _ in range(num_ports)]
        self.va_ptr = [[0] * self.total_vcs for _ in range(num_ports)]
        self.sa_in_ptr = [0] * num_ports
        self.sa_out_ptr = [0] * num_ports
        self.va_req_ptr = [0] * num_ports
        self.busy_vcs = 0
        # Wake masks (see module docstring).
        self.va_pending = 0
        self.va_parked = 0
        self.sa_pending = 0
        self.sa_hold = 0
        # DPA state (paper Section IV.C); policies may ignore it.
        self.ovc_n = 0
        self.ovc_f = 0
        self.native_high = False
        self.native_mask = 0
        self.ovc_dirty = False

    # -- wake-mask maintenance ------------------------------------------------------
    def wake_parked(self) -> None:
        """Re-arm every VA-parked VC after a resource-freeing event.

        Called when an output VC's owner releases or a credit returns —
        the only two events that can turn an empty VA option set
        non-empty. Waking is conservative (the walk re-checks options),
        so over-waking costs a rescan, never correctness.
        """
        parked = self.va_parked
        if parked:
            self.va_pending |= parked
            self.va_parked = 0

    # -- VC allocation ------------------------------------------------------------
    def va_options(self, invc: InputVC) -> list[tuple[int, int]]:
        """Allocatable ``(out_port, out_vc)`` pairs for a VA-state VC.

        This is the single source of truth for VA admissibility — the
        ``do_va`` walk and the invariant tests both use it, so the parked
        condition ("no options") can never drift from the hot path.
        Ports appear in the routing algorithm's preference order and,
        within a port, adaptive VCs before the escape VCs.
        """
        network = self.network
        routing = network.routing
        node = self.node
        pkt = invc.pkt
        ports = invc.route_ports
        if ports is None:
            # RC stage: a table lookup when the routing algorithm built a
            # (node, dst) route table at attach, the dynamic queries
            # otherwise (huge fabrics, destination-impure algorithms).
            entry = network._route_entry
            if entry is not None:
                ports, invc.escape_port, invc.escape_class = entry(node, pkt.dst)
                invc.route_ports = ports
            else:
                ports = routing.admissible_ports(node, pkt)
                invc.route_ports = ports
                invc.escape_port = routing.escape_port(node, pkt)
                invc.escape_class = routing.escape_vc_class(node, pkt)
        ranked = routing.rank_ports(node, pkt, ports) if len(ports) > 1 else ports
        vnet = pkt.vnet
        depth = self.vc_depth
        escape_port = invc.escape_port
        options: list[tuple[int, int]] = []
        for p in ranked:
            owner_p = self.out_owner[p]
            if p == LOCAL:
                # Ejection: the escape restriction is moot, any VC
                # of the vnet may be requested.
                for vc in self._vnet_vcs_t[vnet]:
                    if owner_p[vc] is None:
                        options.append((p, vc))
            else:
                # Atomic VCs (Table 1): a downstream VC may only be
                # reallocated once it has fully drained — owner
                # released *and* all credits back (no flit of the
                # previous packet buffered or in flight).
                credits_p = self.out_credits[p]
                for vc in self._adaptive_vcs[vnet]:
                    if owner_p[vc] is None and credits_p[vc] == depth:
                        options.append((p, vc))
                # Escape VCs are only admissible on the dimension-order
                # port (Duato deadlock freedom) — and, on wrap fabrics,
                # only those of the hop's dateline class — and are tried
                # after the adaptive VCs of their port.
                if p == escape_port:
                    for vc in self._escape_sets[vnet][invc.escape_class]:
                        if owner_p[vc] is None and credits_p[vc] == depth:
                            options.append((p, vc))
        return options

    def do_va(self, cycle: int) -> None:
        """Run VA_in (request selection) and VA_out (grant) for this cycle."""
        mask = self.va_pending
        if not mask:
            return
        policy = self.network.policy
        vcs = self.vcs
        if not (mask & (mask - 1)):
            # Lone VA candidate: its request is granted unopposed, so skip
            # the request grouping. choose_request still runs — it both
            # picks among the options and advances the rotation pointer,
            # exactly as on the general path.
            invc = vcs[mask.bit_length() - 1]
            if cycle < invc.va_ready:
                return
            options = self.va_options(invc)
            if not options:
                self.va_pending = 0
                self.va_parked |= mask
                return
            self._grant(invc, policy.choose_request(self, invc, options), cycle)
            return
        # Walk port by port, shifting each port's submask down to a small
        # int — bit tricks on the narrow masks stay single-word, and the
        # (port, vc) ascending order of a full scan is preserved.
        # requests: (out_port, out_vc) -> mask of requesting VC keys, in
        # first-request order (grants, and their trace events, follow it).
        requests: dict[tuple[int, int], int] = {}
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
                options = self.va_options(invc)
                if not options:
                    # Every admissible downstream VC is owned or draining;
                    # only a credit return or owner release changes that.
                    parks |= low
                    continue
                req = policy.choose_request(self, invc, options)
                requests[req] = requests.get(req, 0) | invc.bit
            if parks:
                parks <<= base
                self.va_pending ^= parks
                self.va_parked |= parks
            base += total
        top_class = policy.va_out_top if policy.uses_va_priority else None
        num_keys = self.num_ports * total
        for req, won in requests.items():
            if won & (won - 1):
                # VA_out: top priority class, then rotate over the VC keys.
                p, vc = req
                if top_class is not None:
                    won = top_class(self, vc, won)
                won = rotating_bit(won, self.va_ptr[p][vc])
                self.va_ptr[p][vc] = won.bit_length() % num_keys
            self._grant(vcs[won.bit_length() - 1], req, cycle)

    def _grant(self, invc: InputVC, req: tuple[int, int], cycle: int) -> None:
        """VA_out grants ``invc`` the output VC ``req``; SA may pick it next cycle."""
        p, vc = req
        self.out_owner[p][vc] = invc
        invc.grant_vc(p, vc, cycle)
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
        policy = network.policy
        top_class = policy.sa_top if policy.uses_sa_priority else None
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

    def dpa_state(self) -> tuple[bool, int, int]:
        """Current DPA state ``(native_high, ovc_n, ovc_f)``.

        The counters are the incrementally-maintained ones the policy hot
        path reads (not a recount) — cheap enough for the observability
        sampler to call on every router every sample period.
        """
        return self.native_high, self.ovc_n, self.ovc_f

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
