"""The network: routers, links, injection queues, event wiring.

The :class:`Network` owns all routers plus the cross-router machinery:

* scheduled flit arrivals and credit returns (dict-of-lists keyed by
  cycle — the event volume per cycle is small and ordered delivery keeps
  the simulation deterministic). Links are resolved once, at
  construction: a flit event is ``(input VC, packet | None)`` and a credit
  event is the tuple ``(upstream router, its credit row, port, vc)``
  prebuilt on the input VC whose slot it frees, so neither the send nor
  the delivery looks anything up by node or port,
* per-node injection queues with a serializing injection link (at most one
  flit enters a router's LOCAL port per cycle, like a network interface),
* the global congestion table ``occupancy`` (flits buffered per router)
  consumed by DBAR's selection function,
* the region map (``region_of`` / router ``app_id`` tags) that RAIR and
  DBAR read,
* statistics and ejection callbacks (the PARSEC-like traffic model hooks
  replies onto request ejections),
* the kernel's *active set* — the routers currently holding at least one
  packet. :meth:`Network.run_router_phases` walks only those (in node
  order, so results never depend on set internals); routers join the set
  when a head flit arrives and leave when their last packet retires. All
  cross-router wake-up events flow through here and keep the routers'
  wake masks exact: flit deliveries, credit returns and the send itself
  each set or clear the bits their event implies (see
  :mod:`repro.noc.router`),
* the optional :class:`~repro.noc.trace.KernelTrace` hook (``trace``)
  that the kernel emits scheduling events into.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.regions import RegionMap
from repro.noc.buffers import VC_ACTIVE
from repro.noc.config import NocConfig
from repro.noc.flit import PacketPool
from repro.noc.router import Router
from repro.noc.stats import NetworkStats
from repro.noc.topology import LOCAL, make_topology
from repro.util.errors import SimulationError

__all__ = ["Network"]


class Network:
    """A NoC (mesh, torus, or ring) with pluggable routing and arbitration.

    Parameters
    ----------
    config:
        Structural parameters (:class:`~repro.noc.config.NocConfig`).
    routing:
        A :class:`~repro.routing.base.RoutingAlgorithm`.
    policy:
        An :class:`~repro.arbitration.base.ArbitrationPolicy`.
    region_map:
        Optional :class:`~repro.core.regions.RegionMap`; without one, every
        node is unassigned (app -1): all traffic is foreign everywhere and
        DBAR's truncation sees a single region — i.e. a conventional NoC.
    trace:
        Optional :class:`~repro.noc.trace.KernelTrace` the kernel emits
        scheduling events into; ``None`` (the default) traces nothing and
        costs one pointer comparison per event.
    """

    def __init__(
        self,
        config: NocConfig,
        routing,
        policy,
        region_map: RegionMap | None = None,
        trace=None,
    ):
        self.config = config
        self.trace = trace
        self.topology = make_topology(config)
        self.region_map = region_map
        if region_map is not None:
            if region_map.topology.signature() != self.topology.signature():
                raise SimulationError("region map topology does not match network config")
            self.region_of = np.asarray(region_map.node_app, dtype=np.int64)
        else:
            self.region_of = np.zeros(self.topology.num_nodes, dtype=np.int64)
        # Plain-int twin of ``region_of`` for per-flit consumers (DBAR's
        # path walk) — indexing an ndarray yields numpy scalars whose
        # comparisons cost several times an int's.
        self.region_ids = [int(a) for a in self.region_of]
        self.routers = [
            Router(n, config, self, int(region_map.node_app[n]) if region_map else -1)
            for n in range(self.topology.num_nodes)
        ]
        self.routing = routing
        self.policy = policy

        # Event queues: cycle -> list of pending deliveries.
        self._arrivals: dict[int, list] = {}
        self._credits: dict[int, list] = {}
        # Per-flit hot-path constants (attribute chains cost in the kernel).
        self._link_lat = config.link_latency
        self._credit_lat = config.credit_latency
        # Links, resolved once: each output port holds the downstream
        # port's InputVC row, each of those VCs the credit event that
        # returns its freed slots upstream.
        opposite = self.topology.opposite
        for router in self.routers:
            for port, dst in enumerate(self.topology.neighbor[router.node]):
                if dst >= 0:
                    row = self.routers[dst].in_vcs[opposite[port]]
                    router.out_links[port] = row
                    for invc in row:
                        invc.credit_item = (router, router.out_credits[port], port, invc.vc)
        # Injection: one FIFO per (node, vnet) + a serializing link.
        self.queues = [
            [deque() for _ in range(config.num_vnets)] for _ in range(self.topology.num_nodes)
        ]
        self._inject_busy_until = [0] * self.topology.num_nodes
        self._inj_vc_ptr = [0] * self.topology.num_nodes
        # Nodes with queued packets; the sorted walk order is cached like
        # the active set's below.
        self._pending_nodes: set[int] = set()
        self._pending_list: list[int] = []
        self._pending_dirty = False
        # Routers currently holding >= 1 packet; the per-cycle router
        # phases walk this (sorted) instead of every router on the chip.
        # The sorted walk order is cached and rebuilt only when the set
        # changes (routers join/leave far less often than cycles tick).
        self._active: set[int] = set()
        self._active_list: list[int] = []
        self._active_dirty = False

        # Congestion table for DBAR / diagnostics: flits buffered per
        # router. A plain list, not an ndarray: it takes two scalar
        # updates per flit on the kernel's hottest path, where ndarray
        # item assignment costs several times what a list write does.
        self.occupancy = [0] * self.topology.num_nodes
        # Per-(router, output port) flit counters for link-utilization
        # reports (port 0 counts ejections into the local NI). Nested
        # lists for the same per-flit-update reason; consumers read copies
        # through ``link_flit_counts``.
        self._link_flits = [
            [0] * self.topology.num_ports for _ in range(self.topology.num_nodes)
        ]
        # What DBAR actually sees: a quantized snapshot of the occupancy,
        # refreshed periodically — real DBAR ships coarse congestion levels
        # over dedicated wires with propagation delay, not exact per-cycle
        # buffer counts (DESIGN.md substitution #4).
        self.congestion = np.zeros(self.topology.num_nodes, dtype=np.int64)
        self.congestion_period = 4
        self.congestion_quantum = max(1, config.vc_depth - 1)
        self.congestion_cap = 3  # 2-bit congestion levels
        # Per-app offered flits (STC's intensity oracle input).
        self.app_flits_injected: dict[int, int] = {}

        self.stats = NetworkStats()
        self.eject_callbacks: list = []
        self.flits_moved = 0
        self.packets_in_flight = 0
        # Packets fully ejected into a local NI since construction. The
        # simulator's ejection watchdog diffs this against its own mark to
        # catch livelock (flits moving, nothing ever ejecting) — a blind
        # spot of the flit-movement watchdog.
        self.packets_ejected = 0
        # Running total of flits buffered chip-wide (== sum(occupancy),
        # maintained incrementally so the per-cycle watchdog check is O(1)).
        self.buffered_total = 0
        # Free list of ejected packet objects (see PacketPool): traffic
        # sources draw from it through alloc_packet, ejection returns to it.
        self.packet_pool = PacketPool()
        # Measurement-window accounting (set by Simulator.run_measurement);
        # lets the drain phase know when every window packet has retired
        # without rescanning the ejection log.
        self.measure_window: tuple[int, int] | None = None
        self.window_injected = 0
        self.window_ejected = 0

        # Attach last: policies and routing algorithms may read any of the
        # state built above (counters, topology, routers) when binding.
        routing.attach(self)
        policy.attach(self)
        # Per-cycle work the kernel can prove unnecessary is skipped:
        # the congestion snapshot only feeds routing algorithms that
        # declare ``uses_congestion`` (DBAR), and the per-router policy
        # hook is only walked when the policy actually overrides it.
        self._congestion_live = bool(getattr(routing, "uses_congestion", False))
        from repro.arbitration.base import ArbitrationPolicy

        self._policy_router_hook = (
            getattr(type(policy), "end_router_cycle", None)
            is not ArbitrationPolicy.end_router_cycle
        )
        # RC-as-lookup: bound method of the routing algorithm's route table
        # when one was built at attach (see RoutingAlgorithm.attach); the
        # router's RC stage falls back to the per-packet queries when None.
        self._route_entry = (
            routing.route_entry
            if getattr(routing, "_route_table", None) is not None
            else None
        )

    def set_measure_window(self, window: tuple[int, int]) -> None:
        """Install the injection-cycle window whose packets must drain."""
        self.measure_window = window
        self.window_injected = 0
        self.window_ejected = 0

    # -- injection -------------------------------------------------------------------
    def alloc_packet(self, *args, **kwargs):
        """A packet built from the free-list pool (fields as ``Packet``).

        The hot-path allocation entry point for traffic sources: reuses an
        ejected packet object when one is available (re-initialised in
        place with a fresh pid), otherwise constructs a new one.
        """
        return self.packet_pool.alloc(*args, **kwargs)

    def inject(self, pkt) -> None:
        """Queue a packet at its source node."""
        if pkt.in_pool:
            raise SimulationError(
                f"{pkt!r} was already ejected and returned to the packet "
                f"pool; stale references must not be re-injected"
            )
        if not 0 <= pkt.src < self.topology.num_nodes:
            raise SimulationError(f"{pkt!r} has invalid source")
        if not 0 <= pkt.dst < self.topology.num_nodes:
            raise SimulationError(f"{pkt!r} has invalid destination")
        if pkt.length > self.config.max_packet_flits:
            raise SimulationError(f"{pkt!r} longer than max_packet_flits")
        if not 0 <= pkt.vnet < self.config.num_vnets:
            raise SimulationError(f"{pkt!r} has invalid vnet")
        self.queues[pkt.src][pkt.vnet].append(pkt)
        if pkt.src not in self._pending_nodes:
            self._pending_nodes.add(pkt.src)
            self._pending_dirty = True
        self.app_flits_injected[pkt.app_id] = (
            self.app_flits_injected.get(pkt.app_id, 0) + pkt.length
        )
        self.packets_in_flight += 1
        w = self.measure_window
        if w is not None and w[0] <= pkt.inject_cycle < w[1]:
            self.window_injected += 1

    def queued_packets(self) -> int:
        """Packets waiting in source queues across the chip."""
        return sum(len(q) for node in self.queues for q in node)

    def place_injections(self, cycle: int) -> None:
        """Move queued packets into idle LOCAL input VCs (1 flit/cycle link)."""
        if not self._pending_nodes:
            return
        # Sorted so injection order never depends on hash-set internals
        # (per-node placements are independent, but determinism should be
        # structural, not an artifact of what each step happens to touch).
        if self._pending_dirty:
            self._pending_list = sorted(self._pending_nodes)
            self._pending_dirty = False
        done = []
        for node in self._pending_list:
            if self._inject_busy_until[node] > cycle:
                continue
            router = self.routers[node]
            queues = self.queues[node]
            # Rotate the starting vnet so vnets share the injection link fairly.
            nv = len(queues)
            started = False
            for k in range(nv):
                vnet = (cycle + k) % nv
                q = queues[vnet]
                if not q:
                    continue
                invc = self._find_idle_local_vc(router, vnet)
                if invc is None:
                    continue
                pkt = q.popleft()
                self._deliver_head(invc, pkt, cycle)
                for i in range(1, pkt.length):
                    self._push(self._arrivals, cycle + i, invc.body_item)
                self._inject_busy_until[node] = cycle + pkt.length
                started = True
                break
            if not started and not any(queues):
                done.append(node)
        if done:
            self._pending_nodes.difference_update(done)
            self._pending_dirty = True

    def _find_idle_local_vc(self, router: Router, vnet: int):
        vcs = router.vcs_local[vnet][1]
        n = len(vcs)
        start = self._inj_vc_ptr[router.node]
        local_vcs = router.in_vcs[LOCAL]
        for k in range(n):
            invc = local_vcs[vcs[(start + k) % n]]
            if invc.pkt is None:
                self._inj_vc_ptr[router.node] = (start + k + 1) % n
                return invc
        return None

    # -- event delivery ----------------------------------------------------------------
    @staticmethod
    def _push(table: dict[int, list], cycle: int, item) -> None:
        lst = table.get(cycle)
        if lst is None:
            table[cycle] = [item]
        else:
            lst.append(item)

    def schedule_arrival(self, cycle: int, node: int, port: int, vc: int, pkt) -> None:
        """Schedule a flit into input VC ``(node, port, vc)``: a head (``pkt``) or a body (None)."""
        invc = self.routers[node].in_vcs[port][vc]
        self._push(self._arrivals, cycle, invc.body_item if pkt is None else (invc, pkt))

    def schedule_credit(self, cycle: int, node: int, port: int, vc: int) -> None:
        """Schedule one credit back to output VC ``(port, vc)`` of router ``node``."""
        router = self.routers[node]
        self._push(self._credits, cycle, (router, router.out_credits[port], port, vc))

    def refresh_congestion(self, cycle: int) -> None:
        """Update the quantized congestion snapshot DBAR reads.

        A no-op unless the installed routing algorithm declares
        ``uses_congestion`` (only DBAR does) — nothing else reads the
        snapshot, so refreshing it for XY/Duato runs is wasted work.
        """
        if self._congestion_live and cycle % self.congestion_period == 0:
            np.minimum(
                np.asarray(self.occupancy, dtype=np.int64) // self.congestion_quantum,
                self.congestion_cap,
                out=self.congestion,
            )

    def skip_idle_cycles(self, start: int, stop: int) -> None:
        """Apply the network-side effects of ticking idle cycles ``[start, stop)``.

        Called by the simulator's fast-forward after it has proven the
        range idle (no packets in flight, queued, or scheduled). The only
        per-cycle network work that is not trivially a no-op on an idle
        chip is the periodic congestion refresh; with every ``occupancy``
        entry zero the refresh writes all-zero levels, and repeating it is
        idempotent — so one refresh stands in for however many boundaries
        the range contained, keeping DBAR's snapshot bit-identical to
        naive ticking.
        """
        if self._congestion_live:
            boundary = start + (-start) % self.congestion_period
            if boundary < stop:
                self.refresh_congestion(boundary)

    def deliver_events(self, cycle: int) -> None:
        """Apply all flit arrivals and credit returns scheduled for ``cycle``."""
        arrivals = self._arrivals.pop(cycle, None)
        if arrivals:
            occupancy = self.occupancy
            for invc, pkt in arrivals:
                if pkt is not None:
                    self._deliver_head(invc, pkt, cycle)
                    continue
                resident = invc.pkt
                if resident is None:
                    raise SimulationError(
                        f"body flit arrived at empty VC "
                        f"(node {invc.node} port {invc.port} vc {invc.vc})"
                    )
                recv = invc.flits_recv
                if recv >= resident.length:
                    raise SimulationError(f"too many flits arrived for {resident!r}")
                if recv == invc.flits_sent and invc.state == VC_ACTIVE:
                    # Refill of a drained ACTIVE VC: sendable next cycle, if
                    # it holds a credit (else the credit's return arms it).
                    if invc.down is None or invc.credit_row[invc.out_vc] > 0:
                        router = invc.router
                        router.sa_pending |= invc.bit
                        router.sa_hold |= invc.bit
                invc.flits_recv = recv + 1
                invc.last_arrival = cycle
                occupancy[invc.node] += 1
                self.buffered_total += 1
        credits = self._credits.pop(cycle, None)
        if credits:
            tr = self.trace
            depth = self.config.vc_depth
            for router, out_credits, port, vc in credits:
                c = out_credits[vc] + 1
                out_credits[vc] = c
                if c > depth:
                    raise SimulationError(
                        f"credit overflow at node {router.node} port {port} vc {vc}"
                    )
                # Only two counter values change anyone's schedulability:
                # the first credit ends the owner's starvation (sendable
                # now if it has a flit buffered — next cycle if that flit,
                # its only one, arrived in this one), and the last one
                # makes an unowned VC VA-allocatable again.
                if c == 1 or c == depth:
                    owner = router.out_owner[port][vc]
                    if owner is None:
                        if c == depth:
                            router.out_free[port] |= 1 << vc
                            router.wake_parked(port)
                    elif c == 1:
                        buffered = owner.flits_recv - owner.flits_sent
                        if buffered:
                            router.sa_pending |= owner.bit
                            if buffered == 1 and owner.last_arrival == cycle:
                                router.sa_hold |= owner.bit
                if tr is not None:
                    tr.credit_return(cycle, router.node, port, vc)

    def _deliver_head(self, invc, pkt, cycle: int) -> None:
        """A head flit is written into ``invc``: the VC and its router wake up."""
        router = invc.router
        node = invc.node
        native = router.app_id >= 0 and pkt.app_id == router.app_id
        invc.head_arrive(pkt, cycle, native)
        # The VC competes in VA from next cycle (va_ready).
        router.va_pending |= invc.bit
        if router.busy_vcs == 0:
            self._active.add(node)
            self._active_dirty = True
            if self.trace is not None:
                self.trace.wake(cycle, node)
        router.busy_vcs += 1
        if native:
            router.ovc_n += 1
            router.native_mask |= invc.bit
        else:
            router.ovc_f += 1
        router.ovc_dirty = True
        self.occupancy[node] += 1
        self.buffered_total += 1

    # -- flit transmission (called by routers' SA stage) ---------------------------------
    def send_flit(self, router: Router, invc, cycle: int) -> None:
        """One flit of ``invc`` traverses the switch and leaves ``router``."""
        pkt = invc.pkt
        sent = invc.flits_sent + 1
        left_buffered = invc.flits_recv - sent
        if left_buffered < 0:
            raise SimulationError("send_flit on empty buffer")
        invc.flits_sent = sent
        # The link handles _grant bound for this packet-hop; down is None
        # on the ejection port.
        down = invc.down
        out_vc = invc.out_vc
        out_port = invc.out_port
        is_tail = sent == pkt.length
        # The VC stays sendable while it is not released, has another
        # flit buffered and (below) a credit left to send it on.
        sendable = not is_tail and left_buffered > 0
        node = router.node
        self.occupancy[node] -= 1
        self.buffered_total -= 1
        self.flits_moved += 1
        self._link_flits[node][out_port] += 1
        if self.trace is not None:
            self.trace.flit_send(cycle, node, out_port, out_vc, pkt.pid, is_tail)

        # Free one buffer slot -> credit back to the upstream router.
        item = invc.credit_item
        if item is not None:
            when = cycle + self._credit_lat
            lst = self._credits.get(when)
            if lst is None:
                self._credits[when] = [item]
            else:
                lst.append(item)

        if is_tail:
            native = invc.is_native
            invc.release()
            router.out_owner[out_port][out_vc] = None
            if down is None:
                # An ejection-port VC frees with its credits intact, so a
                # VA option is born right now: mark it free and re-arm the
                # VCs parked on it. A link-port VC frees with at least one
                # credit outstanding (the tail flit just consumed one), so
                # its option is born only when the final credit returns —
                # deliver_events handles that one.
                router.out_free[LOCAL] |= 1 << out_vc
                router.wake_parked(LOCAL)
            router.busy_vcs -= 1
            if router.busy_vcs == 0:
                self._active.discard(node)
                self._active_dirty = True
                if self.trace is not None:
                    self.trace.sleep(cycle, node)
            if native:
                router.ovc_n -= 1
                router.native_mask &= ~invc.bit
            else:
                router.ovc_f -= 1
            router.ovc_dirty = True

        if down is None:
            if is_tail:
                eject_cycle = cycle + 1  # link traversal into the NI
                self.stats.record_ejection(pkt, eject_cycle)
                self.packets_in_flight -= 1
                self.packets_ejected += 1
                w = self.measure_window
                if w is not None and w[0] <= pkt.inject_cycle < w[1]:
                    self.window_ejected += 1
                for cb in self.eject_callbacks:
                    cb(pkt, eject_cycle)
                # Terminal point of a packet's life: stats copied its
                # fields, callbacks ran — the object itself goes back to
                # the pool for the next alloc_packet to re-initialise.
                self.packet_pool.release(pkt)
        else:
            credits = invc.credit_row
            left = credits[out_vc] - 1
            credits[out_vc] = left
            if left <= 0:
                if left < 0:
                    raise SimulationError(
                        f"negative credits at node {node} port {out_port} vc {out_vc}"
                    )
                sendable = False
            if sent == 1:
                pkt.hops += 1
                item = (down, pkt)
            else:
                item = down.body_item
            when = cycle + self._link_lat
            lst = self._arrivals.get(when)
            if lst is None:
                self._arrivals[when] = [item]
            else:
                lst.append(item)
        if not sendable:
            router.sa_pending &= ~invc.bit

    # -- per-cycle router phases ----------------------------------------------------------
    def run_router_phases(self, cycle: int) -> None:
        """Run VA, SA, and the policy end-of-cycle hook on active routers.

        One walk over the active set (in node order, so results never
        depend on set internals) runs all three phases per router. Fusing
        the old three network-wide loops is result-identical because no
        phase reads another router's same-cycle phase output: VA and SA
        touch only router-local state, every cross-router effect of SA
        (flit and credit delivery) is queued for a strictly later cycle
        (``link_latency``/``credit_latency`` are validated positive), and
        the per-router hook reads only its own router, whose VA/SA have
        already run by then. The snapshot is taken once: a router can only
        *leave* the set mid-walk (drain during its own SA) — joining
        requires a flit delivery, and those all happen before this runs.
        """
        if not self._active:
            return
        if self._active_dirty:
            self._active_list = sorted(self._active)
            self._active_dirty = False
        routers = self.routers
        policy = self.policy
        # The hook is skipped entirely for policies keeping the base no-op.
        hook = policy.end_router_cycle if self._policy_router_hook else None
        for node in self._active_list:
            router = routers[node]
            if router.va_pending:
                router.do_va(cycle)
            if router.sa_pending:
                router.do_sa(cycle)
            if hook is not None and router.busy_vcs:
                hook(router, cycle)

    # -- queries --------------------------------------------------------------------------
    def link_flit_counts(self) -> list[list[int]]:
        """Per-(router, output port) flit counters as copied nested lists.

        Indexed ``[node][port]``. The observability sampler diffs
        successive copies to get per-link flit deltas per sample period.
        """
        return [row[:] for row in self._link_flits]

    def busy_routers(self):
        """Routers currently holding at least one packet."""
        return [r for r in self.routers if r.busy_vcs]

    def active_nodes(self) -> list[int]:
        """Sorted nodes in the kernel's active set (holding >= 1 packet)."""
        return sorted(self._active)

    def idle(self) -> bool:
        """True when nothing is queued, buffered, or in flight.

        Pending credit returns count as activity: stopping before they
        deliver would leave upstream credit counters permanently low.
        """
        return (
            self.packets_in_flight == 0
            and not self._pending_nodes
            and not self._arrivals
            and not self._credits
        )

    def total_buffered_flits(self) -> int:
        """Flits buffered across the whole chip (cross-check vs occupancy)."""
        return sum(self.occupancy)

    def scheduled_arrivals(self) -> list[tuple[int, int, int, int, object]]:
        """Snapshot of in-flight flit deliveries as ``(cycle, node, port, vc, pkt)``.

        ``pkt`` is the packet object for head flits and ``None`` for body
        flits. Read-only view for the guard's conservation scans — the
        event queues themselves stay private to the kernel.
        """
        return [
            (cyc, invc.node, invc.port, invc.vc, pkt)
            for cyc, lst in self._arrivals.items()
            for (invc, pkt) in lst
        ]

    def scheduled_credits(self) -> list[tuple[int, int, int, int]]:
        """Snapshot of in-flight credit returns as ``(cycle, node, port, vc)``."""
        return [
            (cyc, router.node, port, vc)
            for cyc, lst in self._credits.items()
            for (router, _row, port, vc) in lst
        ]
