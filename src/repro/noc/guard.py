"""Runtime invariant guard: conservation monitors, stall forensics, blackbox.

The simulator's only built-in defence against a wedged run is the blunt
no-progress watchdog in :class:`~repro.noc.sim.Simulator` — it can say
*that* nothing moved, not *why*. This module adds a first-class runtime
verification layer with three parts:

**Conservation monitors** (:meth:`RuntimeGuard.check`, run every
``check_period`` cycles and once more at the end of a clean measurement):

* *flit conservation* — ``Network.occupancy`` / ``buffered_total`` match a
  recount of every VC's buffered flits (received − sent), and per-VC
  wormhole framing is legal (``flits_sent <= flits_recv <= length``,
  ACTIVE VCs hold an output VC);
* *credit conservation* — for every link VC, upstream credits + flits
  buffered downstream + flits in flight + credits in flight equals the
  buffer depth, exactly;
* *packet conservation* — ``packets_in_flight`` equals the number of
  distinct live packets (queued, resident, or in-flight head flits);
* *pool-reinjection safety* — no live packet is flagged ``in_pool`` and
  every free-list entry is;
* *dateline legality* (wrap fabrics) — every cached escape class matches
  the dateline rule for the packet's position, and every escape-VC hop in
  progress uses a VC of its hop's class;
* *age watermark* (opt-in) — no resident packet is older than
  ``age_watermark`` cycles while the network keeps ejecting (starvation:
  the victim is stuck while everyone else makes progress).

**Stall classification** (:meth:`RuntimeGuard.on_stall`, invoked by the
simulator's watchdog instead of its generic error): build the
channel-wait-graph from live router/VC state — ACTIVE VCs wait on the
downstream VC they are credit-blocked by (or the upstream VC holding the
rest of their packet), VA VCs with an empty option set wait on every
owner/drainer of their admissible downstream VCs — and run cycle
detection. A cycle is a ``deadlock`` (reported with the offending
node/port/vc ring, pids, and escape-class annotations); no cycle while
flits stopped is ``starvation`` (head-of-line blocking without cyclic
wait); flits moving while ejection is stalled — the separately-tracked
ejection watchdog — is a ``livelock``.

**Crash blackbox**: the guard taps the kernel's
:class:`~repro.noc.trace.KernelTrace` stream through a depth-bounded
:class:`~repro.noc.trace.RecordingTrace` (tee'd behind an existing tracer such
as the obs collector, whose output stays byte-identical). On any
violation it dumps the last K kernel events, a per-router VC/credit/DPA
snapshot, and the classified violation as schema-versioned JSONL
(``guard_header`` / ``guard_event`` / ``router_snapshot`` /
``guard_violation`` records — see :mod:`repro.obs.schema`) and raises a
:class:`~repro.util.errors.GuardError`. Its ``failure_label`` renders as
``FAILED(Deadlock)`` in sweep tables. A stall classification
(``deadlock`` / ``livelock`` / ``starvation``) during the drain phase is
the one exception: the simulator reports it as
``MeasurementResult.abort`` instead, because the stragglers are stuck
but the measured window is whole. A conservation violation fails the
run in every phase.

Modes: ``off`` installs nothing (the hot path keeps its single
``is not None`` pointer comparisons and stays allocation-free and
bit-identical); ``sample`` checks rarely with a small ring; ``strict``
checks often with a deep ring. All checks are read-only over simulator
state (the route-cache fills they trigger are the same values the kernel
would compute), so enabling the guard never changes simulation results.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.noc.buffers import VC_ACTIVE, VC_IDLE, VC_VA
from repro.noc.topology import LOCAL
from repro.noc.trace import RecordingTrace, TeeTrace
from repro.util.errors import ConfigError, GuardError

__all__ = ["GUARD_MODES", "GuardConfig", "RuntimeGuard", "find_cycle"]

#: enforcement modes: ``off`` never installs a guard; ``sample`` checks
#: every ~4K cycles with a 256-event ring; ``strict`` every 256 cycles
#: with a 1024-event ring
GUARD_MODES = ("off", "sample", "strict")

_DEFAULT_PERIOD = {"sample": 4096, "strict": 256}
_DEFAULT_DEPTH = {"sample": 256, "strict": 1024}

#: reason -> FAILED(<label>) rendering
_LABELS = {
    "deadlock": "Deadlock",
    "livelock": "Livelock",
    "starvation": "Starvation",
    "credit_conservation": "CreditConservation",
    "flit_conservation": "FlitConservation",
    "packet_conservation": "PacketConservation",
    "pool_safety": "PoolSafety",
    "dateline": "Dateline",
}

_STATE_NAMES = ("idle", "va", "active")


def _where(node: int, invc) -> str:
    """An input VC's location in a violation message (built only on failure)."""
    return f"VC (node {node} port {invc.port} vc {invc.vc})"


@dataclass(frozen=True)
class GuardConfig:
    """Runtime-guard settings, carried by the engine's ``FaultPolicy``.

    Frozen and picklable so it crosses process boundaries with a cell.
    Like ``ObsConfig`` it is *execution* policy: it never enters
    result-cache keys, because the guard is read-only and a guarded
    simulation is bit-identical to an unguarded one.

    ``dir=None`` keeps the blackbox in memory (on the raised
    :class:`~repro.util.errors.GuardError` / the guard object); a
    directory gets one ``<name>_blackbox.jsonl`` per violating run, named
    by the :class:`RuntimeGuard` of that run.
    ``check_period`` / ``blackbox_depth`` default by mode.
    ``age_watermark`` (cycles) enables the starvation age check — off by
    default because saturating sweeps legitimately hold packets for a
    long time. ``stall_cycles`` overrides the simulator's watchdog
    thresholds (the ejection watchdog becomes twice it), so tests can
    trip stalls inside short windows.
    """

    mode: str = "sample"
    dir: str | None = None
    check_period: int | None = None
    blackbox_depth: int | None = None
    age_watermark: int | None = None
    stall_cycles: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in GUARD_MODES:
            raise ConfigError(
                f"unknown guard mode {self.mode!r}; choose one of {GUARD_MODES}"
            )
        for fld in ("check_period", "blackbox_depth", "age_watermark", "stall_cycles"):
            value = getattr(self, fld)
            if value is not None and value < 1:
                raise ConfigError(f"{fld} must be >= 1, got {value}")

    @property
    def period(self) -> int:
        """Cycles between conservation sweeps (mode default unless set)."""
        return self.check_period or _DEFAULT_PERIOD.get(self.mode, 4096)

    @property
    def depth(self) -> int:
        """Blackbox ring-buffer capacity in events (mode default unless set)."""
        return self.blackbox_depth or _DEFAULT_DEPTH.get(self.mode, 256)


def find_cycle(edges: dict) -> list | None:
    """First cycle in a wait graph (``key -> list of keys``), or ``None``.

    Iterative three-colour DFS; returns the cycle as the list of keys in
    dependency order (each waits on the next, the last on the first).
    Keys appearing only as edge *targets* have no outgoing edges and can
    never close a cycle.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(edges, WHITE)
    for root in edges:
        if color[root] != WHITE:
            continue
        color[root] = GREY
        path = [root]
        stack = [(root, iter(edges[root]))]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                c = color.get(nxt)
                if c == GREY:
                    return path[path.index(nxt):]
                if c == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, iter(edges[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


class RuntimeGuard:
    """Invariant guard for one simulator (see module docstring).

    Install with :meth:`install` after any obs collector (the guard tees
    its ring behind an existing tracer). The simulator then drives
    :meth:`check` every ``config.period`` cycles and hands watchdog trips
    to :meth:`on_stall`; both raise :class:`GuardError` on violation,
    after dumping the blackbox.
    """

    def __init__(self, config: GuardConfig, name: str):
        if config.mode == "off":
            raise ConfigError("guard mode 'off' means: do not install a guard")
        self.config = config
        #: the run's blackbox name: the header's ``name`` and the file stem
        self.name = name
        self.ring: RecordingTrace | None = None
        self.next_check = 0
        self.checks_run = 0
        #: records of the last violation's blackbox (also written as
        #: JSONL when ``config.dir`` is set)
        self.blackbox_records: list[dict] | None = None
        self._sim = None
        self._age_eject_mark = 0
        self._start_cycle = 0

    # -- wiring -----------------------------------------------------------------
    def install(self, sim) -> "RuntimeGuard":
        """Attach to ``sim``: guard slot, ring tracer, watchdog overrides."""
        if getattr(sim, "guard", None) is not None:
            raise ConfigError("simulator already has a guard installed")
        if self._sim is not None:
            raise ConfigError("guard is already installed on a simulator")
        net = sim.network
        self.ring = RecordingTrace(depth=self.config.depth)
        # Tee behind an existing tracer (e.g. the obs collector) so it
        # keeps seeing the identical event stream; claim the slot outright
        # when it is free.
        net.trace = self.ring if net.trace is None else TeeTrace(net.trace, self.ring)
        sim.guard = self
        self._sim = sim
        self._start_cycle = sim.cycle
        self.next_check = sim.cycle + self.config.period
        self._age_eject_mark = net.packets_ejected
        if self.config.stall_cycles is not None:
            sim.WATCHDOG_CYCLES = self.config.stall_cycles
            sim.EJECT_WATCHDOG_CYCLES = 2 * self.config.stall_cycles
        return self

    # -- periodic conservation sweep ----------------------------------------------
    def check(self, cycle: int, net) -> None:
        """Run every conservation monitor; raises :class:`GuardError` on failure."""
        self._check_flits(cycle, net)
        self._check_credits(cycle, net)
        self._check_packets(cycle, net)
        self._check_dateline(cycle, net)
        self._check_age(cycle, net)
        self.checks_run += 1
        self.next_check = cycle + self.config.period

    def _check_flits(self, cycle: int, net) -> None:
        occupancy = net.occupancy
        total = 0
        for router in net.routers:
            node = router.node
            count = 0
            for invc in router.vcs:
                pkt = invc.pkt
                buffered = invc.occupancy()
                count += buffered
                if pkt is None:
                    if invc.state != VC_IDLE or buffered:
                        self._violate(
                            cycle, net, "flit_conservation",
                            f"{_where(node, invc)} holds {buffered} flit(s) in "
                            f"state {_STATE_NAMES[invc.state]} with no resident "
                            "packet",
                        )
                    continue
                if invc.state == VC_IDLE:
                    self._violate(
                        cycle, net, "flit_conservation",
                        f"{_where(node, invc)} is IDLE but packet #{pkt.pid} "
                        "is resident",
                    )
                if pkt.in_pool:
                    self._violate(
                        cycle, net, "pool_safety",
                        f"packet #{pkt.pid} resident at {_where(node, invc)} "
                        f"is marked in_pool — a pooled object is live in the "
                        "network",
                    )
                if not 0 <= invc.flits_sent <= invc.flits_recv <= pkt.length:
                    self._violate(
                        cycle, net, "flit_conservation",
                        f"{_where(node, invc)} framing illegal for packet "
                        f"#{pkt.pid}: "
                        f"sent={invc.flits_sent} recv={invc.flits_recv} "
                        f"length={pkt.length}",
                    )
                if invc.state == VC_ACTIVE and invc.out_port < 0:
                    self._violate(
                        cycle, net, "flit_conservation",
                        f"{_where(node, invc)} is ACTIVE without an allocated "
                        "output VC",
                    )
            if count != occupancy[node]:
                self._violate(
                    cycle, net, "flit_conservation",
                    f"occupancy[{node}] is {occupancy[node]} but its VCs "
                    f"hold {count} flit(s)",
                )
            total += count
        if total != net.buffered_total:
            self._violate(
                cycle, net, "flit_conservation",
                f"buffered_total is {net.buffered_total} but the chip "
                f"holds {total} flit(s)",
            )

    def _check_credits(self, cycle: int, net) -> None:
        depth = net.config.vc_depth
        neighbor = net.topology.neighbor
        opposite = net.topology.opposite
        routers = net.routers
        inflight_flits = Counter(
            (node, port, vc) for _, node, port, vc, _ in net.scheduled_arrivals()
        )
        inflight_credits = Counter(
            (node, port, vc) for _, node, port, vc in net.scheduled_credits()
        )
        for router in routers:
            node = router.node
            for port in range(1, router.num_ports):
                down = neighbor[node][port]
                if down < 0:
                    continue
                down_port = opposite[port]
                down_vcs = routers[down].in_vcs[down_port]
                credits = router.out_credits[port]
                for vc in range(router.total_vcs):
                    buffered = down_vcs[vc].occupancy()
                    have = (
                        credits[vc]
                        + buffered
                        + inflight_flits[(down, down_port, vc)]
                        + inflight_credits[(node, port, vc)]
                    )
                    if have != depth:
                        self._violate(
                            cycle, net, "credit_conservation",
                            f"link VC (node {node} port {port} vc {vc}): "
                            f"credits {credits[vc]} + buffered "
                            f"{buffered} + in-flight flits "
                            f"{inflight_flits[(down, down_port, vc)]} + "
                            f"in-flight credits "
                            f"{inflight_credits[(node, port, vc)]} = {have}, "
                            f"expected depth {depth}",
                        )

    def _check_packets(self, cycle: int, net) -> None:
        live: set[int] = set()
        for router in net.routers:
            for invc in router.vcs:
                if invc.pkt is not None:
                    live.add(invc.pkt.pid)
        for node_queues in net.queues:
            for queue in node_queues:
                for pkt in queue:
                    live.add(pkt.pid)
                    if pkt.in_pool:
                        self._violate(
                            cycle, net, "pool_safety",
                            f"queued packet #{pkt.pid} is marked in_pool",
                        )
        for _, _, _, _, pkt in net.scheduled_arrivals():
            if pkt is not None:
                live.add(pkt.pid)
                if pkt.in_pool:
                    self._violate(
                        cycle, net, "pool_safety",
                        f"in-flight packet #{pkt.pid} is marked in_pool",
                    )
        if len(live) != net.packets_in_flight:
            self._violate(
                cycle, net, "packet_conservation",
                f"packets_in_flight is {net.packets_in_flight} but "
                f"{len(live)} distinct packet(s) are queued, resident, or "
                f"in flight",
            )
        pool = getattr(net, "packet_pool", None)
        if pool is not None:
            for pkt in pool.free_packets():
                if not pkt.in_pool:
                    self._violate(
                        cycle, net, "pool_safety",
                        f"free-list packet #{pkt.pid} lost its in_pool flag",
                    )

    def _check_dateline(self, cycle: int, net) -> None:
        if net.topology.num_escape_classes < 2:
            return  # single escape class: nothing to get wrong
        cfg = net.config
        route = net.routing.route
        for router in net.routers:
            if not router.busy_vcs:
                continue
            node = router.node
            for invc in router.vcs:
                pkt = invc.pkt
                if pkt is None or invc.route_ports is None:
                    continue  # RC not run yet: nothing cached to corrupt
                expected = route(node, pkt)[2]
                where = f"VC (node {node} port {invc.port} vc {invc.vc})"
                if invc.escape_class != expected:
                    self._violate(
                        cycle, net, "dateline",
                        f"{where} caches escape class {invc.escape_class} "
                        f"for packet #{pkt.pid} -> {pkt.dst}; the dateline "
                        f"rule says {expected}",
                    )
                if (
                    invc.state == VC_ACTIVE
                    and invc.out_port != LOCAL
                    and invc.out_port == invc.escape_port
                    and cfg.is_escape_vc(invc.out_vc)
                ):
                    # a vnet's escape VC i serves dateline class i
                    vc_cls = invc.out_vc - cfg.vnet_vcs(pkt.vnet).start
                    if vc_cls != expected:
                        self._violate(
                            cycle, net, "dateline",
                            f"{where} sends packet #{pkt.pid} on escape VC "
                            f"{invc.out_vc} of class {vc_cls}; its hop is "
                            f"class {expected}",
                        )

    def _check_age(self, cycle: int, net) -> None:
        watermark = self.config.age_watermark
        if watermark is None:
            return
        ejected = net.packets_ejected
        progressing = ejected != self._age_eject_mark
        self._age_eject_mark = ejected
        if not progressing:
            return  # no global progress either: the watchdog will classify
        for router in net.routers:
            if not router.busy_vcs:
                continue
            for invc in router.vcs:
                pkt = invc.pkt
                if pkt is None:
                    continue
                age = cycle - pkt.inject_cycle
                if age > watermark:
                    self._violate(
                        cycle, net, "starvation",
                        f"packet #{pkt.pid} (node {router.node} port "
                        f"{invc.port} vc {invc.vc}, dst {pkt.dst}) has been "
                        f"in the network {age} cycles (> watermark "
                        f"{watermark}) while other packets keep ejecting",
                    )

    # -- stall classification -------------------------------------------------------
    def on_stall(self, cycle: int, net, trip: str) -> None:
        """Classify a watchdog trip; always raises :class:`GuardError`.

        ``trip`` is ``"progress"`` (no flit moved) or ``"ejection"``
        (flits moving, nothing ejected).
        """
        if trip == "ejection":
            self._violate(
                cycle, net, "livelock",
                f"flits kept moving but no packet ejected for "
                f"{getattr(self._sim, 'EJECT_WATCHDOG_CYCLES', '?')} cycles "
                f"at cycle {cycle} with {net.packets_in_flight} packet(s) "
                f"in flight",
            )
        edges = self.wait_graph(net)
        ring_keys = find_cycle(edges)
        if ring_keys is not None:
            ring = [self._describe_vc(net, key) for key in ring_keys]
            loop = " -> ".join(
                f"(n{n} p{p} v{v})" for n, p, v in ring_keys
            )
            self._violate(
                cycle, net, "deadlock",
                f"channel-wait-graph cycle of {len(ring_keys)} VC(s) at "
                f"cycle {cycle}: {loop}",
                ring=ring,
            )
        self._violate(
            cycle, net, "starvation",
            f"no flit moved for {self._sim.WATCHDOG_CYCLES} cycles at cycle "
            f"{cycle} with {net.buffered_total} flit(s) buffered, but the "
            f"channel-wait-graph is acyclic — head-of-line starvation, not "
            f"deadlock",
        )

    def wait_graph(self, net) -> dict:
        """Channel-wait-graph over busy VCs: ``(node, port, vc) -> blockers``.

        An ACTIVE VC with an empty buffer waits on the upstream VC still
        holding the rest of its packet; one that is credit-blocked waits
        on the downstream VC draining its output. A VA VC whose option
        set is empty waits on every owner of an admissible downstream VC
        (or, for a draining one, the downstream VC itself). VCs that are
        schedulable — merely slow — contribute no edges, so on a genuine
        deadlock the graph contains exactly the stalled dependency
        structure.
        """
        edges: dict = {}
        neighbor = net.topology.neighbor
        opposite = net.topology.opposite
        routers = net.routers
        for router in routers:
            if not router.busy_vcs:
                continue
            node = router.node
            for invc in router.vcs:
                pkt = invc.pkt
                if pkt is None:
                    continue
                deps: list = []
                if invc.state == VC_ACTIVE:
                    out_port = invc.out_port
                    if not invc.occupancy():
                        if invc.port != LOCAL:
                            up = neighbor[node][invc.port]
                            owner = routers[up].out_owner[opposite[invc.port]][invc.vc]
                            if owner is not None and owner.pkt is pkt:
                                deps.append((up, owner.port, owner.vc))
                    elif (
                        out_port != LOCAL
                        and router.out_credits[out_port][invc.out_vc] <= 0
                    ):
                        deps.append(
                            (neighbor[node][out_port], opposite[out_port], invc.out_vc)
                        )
                elif invc.state == VC_VA:
                    # va_options fills the RC cache with the same values
                    # the kernel would compute; it never advances
                    # arbitration pointers, so this is observation-only.
                    if not router.va_options(invc):
                        deps = self._va_blockers(router, invc, neighbor, opposite)
                if deps:
                    edges[(node, invc.port, invc.vc)] = deps
        return edges

    def _va_blockers(self, router, invc, neighbor, opposite) -> list:
        """Who blocks each downstream VC a parked VA VC could request."""
        node = router.node
        depth = router.vc_depth
        deps: list = []
        for port in invc.route_ports:
            for vc in router.admissible_vcs(invc, port)[1]:
                owner = router.out_owner[port][vc]
                if owner is not None:
                    deps.append((node, owner.port, owner.vc))
                elif port != LOCAL and router.out_credits[port][vc] < depth:
                    deps.append((neighbor[node][port], opposite[port], vc))
        return deps

    # -- blackbox + violation ---------------------------------------------------------
    def _describe_vc(self, net, key) -> dict:
        node, port, vc = key
        invc = net.routers[node].in_vcs[port][vc]
        pkt = invc.pkt
        return {
            "node": node,
            "port": port,
            "vc": vc,
            "pid": pkt.pid if pkt is not None else -1,
            "dst": pkt.dst if pkt is not None else -1,
            "state": _STATE_NAMES[invc.state],
            "buffered": invc.occupancy(),
            "out_port": invc.out_port,
            "out_vc": invc.out_vc,
            "is_escape": bool(invc.is_escape),
            "escape_class": invc.escape_class,
        }

    def _snapshot_router(self, cycle: int, router) -> dict:
        return {
            "kind": "router_snapshot",
            "cycle": cycle,
            "node": router.node,
            "busy_vcs": router.busy_vcs,
            "native_high": bool(router.native_high),
            "ovc_n": router.ovc_n,
            "ovc_f": router.ovc_f,
            "vcs": [
                self._describe_vc(
                    router.network, (router.node, invc.port, invc.vc)
                )
                for invc in router.vcs
                if invc.pkt is not None
            ],
            "credits": [list(row) for row in router.out_credits],
            "owners": [
                [
                    owner.pkt.pid if owner is not None and owner.pkt is not None else -1
                    for owner in row
                ]
                for row in router.out_owner
            ],
        }

    def _violate(
        self, cycle: int, net, reason: str, message: str, ring: list | None = None
    ) -> None:
        """Dump the blackbox and raise the classified :class:`GuardError`."""
        # Lazy obs imports: repro.noc stays import-free of repro.obs at
        # module level; the blackbox writer is only touched on violation.
        from repro.obs.exporters import write_stream
        from repro.obs.schema import SCHEMA_VERSION

        cfg = net.config
        records: list[dict] = [
            {
                "kind": "guard_header",
                "schema": SCHEMA_VERSION,
                "name": self.name,
                "mode": self.config.mode,
                "width": cfg.width,
                "height": cfg.height,
                "num_nodes": net.topology.num_nodes,
                "topology": net.topology.kind,
                "depth": self.config.depth,
                "start_cycle": self._start_cycle,
            }
        ]
        if self.ring is not None:
            for event in self.ring.events:
                records.append(
                    {
                        "kind": "guard_event",
                        "cycle": event[1],
                        "event": event[0],
                        "args": list(event[2:]),
                    }
                )
        for router in net.busy_routers():
            records.append(self._snapshot_router(cycle, router))
        records.append(
            {
                "kind": "guard_violation",
                "cycle": cycle,
                "reason": reason,
                "message": message,
                "ring": ring or [],
                "buffered_total": net.buffered_total,
                "packets_in_flight": net.packets_in_flight,
                "queued": net.queued_packets(),
            }
        )
        self.blackbox_records = records
        path = None
        if self.config.dir is not None:
            path = write_stream(records, self.config.dir, self.name, "_blackbox")
        full = f"guard violation ({reason}) at cycle {cycle}: {message}"
        if path is not None:
            full += f" [blackbox: {path}]"
        raise GuardError(full, reason=reason, label=_LABELS[reason], blackbox_path=path)
