"""Input virtual-channel state machine.

An :class:`InputVC` is the unit of buffering and arbitration in the router.
Because VCs are *atomic* (Table 1 of the paper: one packet occupies a VC at
a time), a VC's buffered flits all belong to one packet and are represented
by a short list of their arrival cycles (at most ``vc_depth`` entries; an
empty deque is ten times the size, times every VC on the chip) rather than
per-flit objects — the hot loop never allocates.

State machine::

    IDLE --head flit arrives--> ROUTING/VA --wins VA_out--> ACTIVE
    ACTIVE --tail flit sent--> IDLE

A VC in ``VA`` state has a head flit buffered and competes for an output VC
each cycle; a VC in ``ACTIVE`` state owns a downstream VC and competes for
the switch whenever it has a flit buffered, a credit available and its
pipeline-stage timestamps allow.

The VC is not polled for schedulability: the kernel maintains the
router's wake masks (``Router.va_pending`` / ``sa_pending`` / ``sa_hold``,
see the "Kernel scheduling" section of ``docs/ARCHITECTURE.md``) from the
events themselves. The per-packet transitions are methods here
(:meth:`head_arrive`, :meth:`grant_vc`, :meth:`release`); the two per-flit
ones — a body flit arriving, a flit departing — are applied in place by
their single callers, ``Network.deliver_events`` and ``Network.send_flit``,
next to the mask updates they imply.

:meth:`wants_va` / :meth:`wants_sa` remain as the brute-force eligibility
oracle that the wake masks are cross-checked against in tests.
"""

from __future__ import annotations

from repro.noc.config import VcClass
from repro.util.errors import SimulationError

__all__ = ["InputVC", "VC_IDLE", "VC_VA", "VC_ACTIVE"]

VC_IDLE = 0
VC_VA = 1
VC_ACTIVE = 2


class InputVC:
    """One virtual channel of one input port of one router."""

    __slots__ = (
        "node",
        "port",
        "vc",
        "vnet",
        "vc_class",
        "is_escape",
        "pkt",
        "arrivals",
        "flits_recv",
        "flits_sent",
        "state",
        "out_port",
        "out_vc",
        "route_ports",
        "escape_port",
        "escape_class",
        "va_ready",
        "sa_ready",
        "is_native",
        "bit",
        "router",
        "body_item",
        "credit_item",
    )

    def __init__(
        self,
        node: int,
        port: int,
        vc: int,
        vnet: int,
        vc_class: VcClass,
        is_escape: bool,
        key: int = 0,
        router=None,
    ):
        self.node = node
        self.port = port
        self.vc = vc
        # This VC's bit in the router's wake masks (flat key port * total_vcs + vc).
        self.bit = 1 << key
        # Link wiring, resolved once (see Network.__init__): the owning
        # router, the event a body flit arriving here is, and the event
        # the credit for a flit leaving here is (None off-link: LOCAL).
        self.router = router
        self.body_item = (self, None)
        self.credit_item = None
        self.vnet = vnet
        self.vc_class = vc_class
        self.is_escape = is_escape
        self.pkt = None
        self.arrivals: list[int] = []
        self.flits_recv = 0
        self.flits_sent = 0
        self.state = VC_IDLE
        self.out_port = -1
        self.out_vc = -1
        self.route_ports: tuple[int, ...] | None = None
        # Cached alongside route_ports (all three are pure functions of
        # the resident packet); only meaningful while route_ports is not
        # None. escape_class is the dateline VC class of the escape hop
        # (always 0 on fabrics with a single escape class).
        self.escape_port = -1
        self.escape_class = 0
        self.va_ready = 0
        self.sa_ready = 0
        # Native/foreign classification of the resident packet w.r.t. this
        # router's region; cached at head arrival (RAIR Section IV.E: "a
        # packet is identified as either native ... or foreign").
        self.is_native = True

    # -- arrivals -------------------------------------------------------------
    def head_arrive(self, pkt, cycle: int, native: bool) -> None:
        """First flit of ``pkt`` is written into this buffer at ``cycle``."""
        if self.state != VC_IDLE or self.pkt is not None:
            raise SimulationError(
                f"head flit of {pkt!r} arrived at busy VC "
                f"(node {self.node} port {self.port} vc {self.vc})"
            )
        if pkt.vnet != self.vnet:
            raise SimulationError(f"{pkt!r} delivered to vnet-{self.vnet} VC")
        self.pkt = pkt
        self.arrivals.append(cycle)
        self.flits_recv = 1
        self.flits_sent = 0
        self.state = VC_VA
        self.route_ports = None
        self.va_ready = cycle + 1
        self.is_native = native

    # -- queries --------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of flits currently buffered."""
        return len(self.arrivals)

    def wants_va(self, cycle: int) -> bool:
        """True when this VC should compete in VC allocation this cycle."""
        return self.state == VC_VA and cycle >= self.va_ready

    def wants_sa(self, cycle: int) -> bool:
        """True when this VC has a flit eligible for switch allocation.

        Credit availability is checked by the router (it owns the credit
        counters); this only checks VC-local pipeline conditions: a flit is
        buffered, it was buffered in an earlier cycle (buffer-write and
        switch traversal cannot share a cycle), and the post-VA setup delay
        has elapsed.
        """
        return (
            self.state == VC_ACTIVE
            and bool(self.arrivals)
            and self.arrivals[0] < cycle
            and cycle >= self.sa_ready
        )

    # -- transitions ----------------------------------------------------------
    def grant_vc(self, out_port: int, out_vc: int, cycle: int) -> None:
        """VA_out granted this VC the downstream VC ``(out_port, out_vc)``."""
        if self.state != VC_VA:
            raise SimulationError("VC granted an output VC while not in VA state")
        self.out_port = out_port
        self.out_vc = out_vc
        self.state = VC_ACTIVE
        self.sa_ready = cycle + 1

    def release(self) -> None:
        """The tail flit departed: the VC is free for the next packet."""
        if self.arrivals:
            raise SimulationError("VC released while flits still buffered")
        self.pkt = None
        self.state = VC_IDLE
        self.out_port = -1
        self.out_vc = -1
        self.route_ports = None
        self.flits_recv = 0
        self.flits_sent = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        st = ("IDLE", "VA", "ACTIVE")[self.state]
        return (
            f"InputVC(n{self.node} p{self.port} v{self.vc} {st} "
            f"buf={len(self.arrivals)} pkt={self.pkt and self.pkt.pid})"
        )
