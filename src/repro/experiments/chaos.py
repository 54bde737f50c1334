"""Fault-injection scenario builders for exercising the execution engine.

These builders exist to *test the harness, not the paper*: each one
returns a tiny uniform-traffic scenario on a 4x4 mesh whose construction
first performs a configurable act of sabotage. Because they are referred
to by dotted name (``"repro.experiments.chaos:chaos_scenario"``) through
:class:`~repro.experiments.scenarios.ScenarioSpec`, the fault fires
inside whatever process builds the cell — the worker, under
``jobs>1`` — which is exactly where the fault-tolerant engine of
:mod:`repro.experiments.parallel` must contain it.

Fault modes:

``ok``
    no fault; a cheap clean simulation (the control group).
``raise``
    raise :class:`~repro.util.errors.SimulationError` — deterministic,
    classified non-retryable, must fail fast without retries.
``raise_transient``
    raise :class:`OSError` every time — retryable, must burn
    ``max_attempts`` attempts and then fail with ``attempts == 3``.
``flaky``
    raise :class:`OSError` only until ``marker`` exists (the first
    attempt creates it) — a transient failure that retry must heal.
``hang``
    sleep far past any reasonable wall timeout — must be killed by the
    parent's deadline enforcement and recorded as ``CellTimeout``.
``kill``
    ``SIGKILL`` the current process — the cell's own worker, every
    attempt; must fail as ``WorkerDied`` after exactly ``max_attempts``
    attempts, with no attempt charged to any other cell.
``kill_once``
    ``SIGKILL`` only if ``marker`` does not exist yet (created first,
    with ``open(marker, "x")``, so exactly one process dies even when
    attempts race) — a worker crash that one retry must heal.
``wait_marker``
    block (polling) until ``marker`` exists, then simulate cleanly — a
    cell that pauses at a known point so a test can act mid-sweep (kill
    the daemon, inspect state) and then release it deterministically.

``marker`` is a caller-owned path; distinct tests must use distinct
paths. ``cell_id`` only widens the cell key so one chaos sweep can hold
many otherwise-identical cells.
"""

from __future__ import annotations

import os
import signal
import time

from repro.experiments.scenarios import Scenario, ScenarioSpec
from repro.noc.config import NocConfig
from repro.noc.topology import make_topology
from repro.traffic.patterns import UniformPattern
from repro.traffic.synthetic import FixedLength, SyntheticTrafficSource
from repro.util.errors import ConfigError, SimulationError

__all__ = [
    "CHAOS_MODES",
    "GUARD_FAULTS",
    "chaos_scenario",
    "chaos_cell",
    "guard_chaos_scenario",
    "guard_chaos_cell",
]

CHAOS_MODES = (
    "ok",
    "raise",
    "raise_transient",
    "flaky",
    "hang",
    "kill",
    "kill_once",
    "wait_marker",
)

#: long enough that only deadline enforcement ends a "hang" cell
_HANG_SECONDS = 3600.0


def _inject_fault(mode: str, marker: str | None) -> None:
    if mode == "ok":
        return
    if mode == "raise":
        raise SimulationError("chaos: injected deterministic failure")
    if mode == "raise_transient":
        raise OSError("chaos: injected transient failure")
    if mode == "flaky":
        if marker is None:
            raise ConfigError("chaos mode 'flaky' needs a marker path")
        try:
            with open(marker, "x"):
                pass
        except FileExistsError:
            return  # already failed once; heal
        raise OSError("chaos: flaky failure (healed on retry)")
    if mode == "hang":
        time.sleep(_HANG_SECONDS)
        return
    if mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "kill_once":
        if marker is None:
            raise ConfigError("chaos mode 'kill_once' needs a marker path")
        try:
            with open(marker, "x"):
                pass
        except FileExistsError:
            return  # someone already died for this cell; heal
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "wait_marker":
        if marker is None:
            raise ConfigError("chaos mode 'wait_marker' needs a marker path")
        while not os.path.exists(marker):
            time.sleep(0.02)


def chaos_scenario(
    mode: str = "ok",
    marker: str | None = None,
    cell_id: int = 0,
    rate: float = 0.05,
) -> Scenario:
    """A tiny uniform-traffic scenario that misbehaves on construction."""
    if mode not in CHAOS_MODES:
        raise ConfigError(f"unknown chaos mode {mode!r}; known: {CHAOS_MODES}")
    _inject_fault(mode, marker)
    config = NocConfig(width=4, height=4)
    topo = make_topology(config)

    def factory(seed: int) -> list:
        return [
            SyntheticTrafficSource(
                nodes=range(config.num_nodes),
                rate=rate,
                pattern=UniformPattern(topo),
                app_id=0,
                seed=seed,
                lengths=FixedLength(1),
            )
        ]

    return Scenario(
        name=f"chaos_{mode}_{cell_id}",
        config=config,
        region_map=None,
        traffic_factory=factory,
        description=f"fault-injection scenario (mode={mode})",
        meta={"mode": mode, "cell_id": cell_id},
        spec=ScenarioSpec(
            "repro.experiments.chaos:chaos_scenario",
            {"mode": mode, "marker": marker, "cell_id": cell_id, "rate": rate},
        ),
    )


#: runtime-state faults for exercising the invariant guard
#: (:mod:`repro.noc.guard`); each corrupts *live simulator state* from a
#: traffic source's ``tick``, so the guard — not the construction-time
#: machinery above — must catch it. Expected classification:
#:
#: ``credit_leak``      -> credit_conservation (one credit vanishes)
#: ``drop_tail``        -> flit_conservation (a buffered flit vanishes)
#: ``freeze_router``    -> starvation (one router's SA stage wedged while
#:                         the rest of the chip keeps ejecting; needs the
#:                         guard's ``age_watermark``)
#: ``dateline``         -> dateline (cached escape class corrupted; wrap
#:                         fabrics only)
#: ``livelock``         -> livelock (wedged packets + forged flit motion:
#:                         the ejection watchdog must see through it)
#: ``deadlock``         -> deadlock (hand-built cyclic buffer wedge
#:                         between two adjacent routers; the wait-graph
#:                         search must find the cycle)
GUARD_FAULTS = (
    "credit_leak",
    "drop_tail",
    "freeze_router",
    "dateline",
    "livelock",
    "deadlock",
)


class _GuardFaultSource:
    """Traffic source that sabotages live network state at ``at_cycle``.

    Ticks run inside :meth:`Simulator.step` before injections and router
    phases, so the corruption lands mid-simulation exactly like a real
    bug would. Deliberately has no ``next_injection_cycle``: its presence
    disables idle fast-forward, so every cycle actually ticks.
    """

    def __init__(self, fault: str, at_cycle: int, freeze_node: int = 5):
        self.fault = fault
        self.at_cycle = at_cycle
        self.freeze_node = freeze_node
        self.done = False

    def tick(self, cycle: int, net) -> None:
        if cycle < self.at_cycle:
            return
        fault = self.fault
        if fault == "credit_leak":
            if not self.done:
                self._leak_credit(net)
        elif fault == "drop_tail":
            if not self.done:
                self._drop_flit(net)
        elif fault == "freeze_router":
            # Re-freeze every cycle: arrivals and grants keep re-arming
            # the wake bits, a one-shot clear would heal within a cycle.
            net.routers[self.freeze_node].sa_pending = 0
        elif fault == "dateline":
            self._corrupt_dateline(net)
        elif fault == "livelock":
            if not self.done:
                self._wedge(net, cycle)
            # Forge flit motion so the movement watchdog stays satisfied;
            # only the ejection watchdog can see this stall.
            net.flits_moved += 1
        elif fault == "deadlock":
            if not self.done:
                self._wedge(net, cycle)

    def _leak_credit(self, net) -> None:
        router = net.routers[0]
        for port in range(1, router.num_ports):
            if net.topology.neighbor[0][port] >= 0:
                router.set_out_credits(port, 0, router.out_credits[port][0] - 1)
                self.done = True
                return

    def _drop_flit(self, net) -> None:
        for router in net.routers:
            if not router.busy_vcs:
                continue
            for invc in router.vcs:
                if invc.flits_recv > invc.flits_sent:
                    # A buffered flit vanishes; occupancy and
                    # buffered_total are left stale on purpose.
                    invc.flits_recv -= 1
                    self.done = True
                    return
        # no buffered flit yet: retry next tick

    def _corrupt_dateline(self, net) -> None:
        ncls = net.topology.num_escape_classes
        for router in net.routers:
            if not router.busy_vcs:
                continue
            for invc in router.vcs:
                if invc.pkt is not None and invc.route_ports is not None:
                    entry = net._route_entry
                    if entry is not None:
                        expected = entry(router.node, invc.pkt.dst)[2]
                    else:
                        expected = net.routing.escape_vc_class(router.node, invc.pkt)
                    invc.escape_class = (expected + 1) % ncls

    def _wedge(self, net, cycle: int) -> None:
        """Cross-wedge two adjacent routers into a cyclic buffer wait.

        Every VC of node ``b``'s input port facing ``a`` is filled with a
        full-length packet destined back to ``a`` (and vice versa), with
        the upstream credit counters drained to match — so every
        conservation equation holds, but each side's packets need a
        downstream VC the other side's packets occupy: a true cyclic
        wait, indistinguishable from an organically-routed deadlock.
        """
        topo = net.topology
        a = 0
        port_a = next(
            p for p in range(1, topo.num_ports) if topo.neighbor[a][p] >= 0
        )
        b = topo.neighbor[a][port_a]
        port_b = topo.opposite[port_a]
        cfg = net.config
        depth = cfg.vc_depth
        length = min(depth, cfg.max_packet_flits)
        for node, port, upstream, up_port, dst in (
            (b, port_b, a, port_a, a),
            (a, port_a, b, port_b, b),
        ):
            for vc in range(cfg.total_vcs):
                pkt = net.alloc_packet(
                    src=dst, dst=dst, length=length, inject_cycle=cycle,
                    vnet=cfg.vc_vnet(vc),
                )
                net.schedule_arrival(cycle, node, port, vc, pkt)
                for _ in range(length - 1):
                    net.schedule_arrival(cycle, node, port, vc, None)
                up = net.routers[upstream]
                up.set_out_credits(up_port, vc, up.out_credits[up_port][vc] - length)
                net.packets_in_flight += 1
        # This cycle's own events were delivered before the tick, so this
        # delivers exactly the flits scheduled above.
        net.deliver_events(cycle)
        self.done = True


def guard_chaos_scenario(
    fault: str = "deadlock",
    cell_id: int = 0,
    rate: float = 0.05,
    at_cycle: int = 50,
) -> Scenario:
    """A scenario whose traffic source corrupts live simulator state.

    ``deadlock`` / ``livelock`` run with no background traffic (the wedge
    is the whole workload); the conservation faults ride a light uniform
    load so there is state to corrupt. ``dateline`` runs on a 4x4 torus
    (two escape classes); everything else on the 4x4 mesh.
    """
    if fault not in GUARD_FAULTS:
        raise ConfigError(f"unknown guard fault {fault!r}; known: {GUARD_FAULTS}")
    if fault in ("deadlock", "livelock"):
        rate = 0.0
    if fault == "dateline":
        config = NocConfig.for_topology("torus", width=4, height=4)
    else:
        config = NocConfig(width=4, height=4)
    topo = make_topology(config)

    def factory(seed: int) -> list:
        sources: list = [_GuardFaultSource(fault, at_cycle)]
        if rate > 0.0:
            sources.append(
                SyntheticTrafficSource(
                    nodes=range(config.num_nodes),
                    rate=rate,
                    pattern=UniformPattern(topo),
                    app_id=0,
                    seed=seed,
                    lengths=FixedLength(2),
                )
            )
        return sources

    return Scenario(
        name=f"guard_chaos_{fault}_{cell_id}",
        config=config,
        region_map=None,
        traffic_factory=factory,
        description=f"guard fault-injection scenario (fault={fault})",
        meta={"fault": fault, "cell_id": cell_id},
        spec=ScenarioSpec(
            "repro.experiments.chaos:guard_chaos_scenario",
            {"fault": fault, "cell_id": cell_id, "rate": rate, "at_cycle": at_cycle},
        ),
    )


def guard_chaos_cell(
    scheme,
    effort,
    seed: int,
    fault: str = "deadlock",
    cell_id: int = 0,
    rate: float = 0.05,
    at_cycle: int = 50,
):
    """Build a guard-fault :class:`~repro.experiments.parallel.Cell`.

    Assembled from the raw spec (like :func:`chaos_cell`) so the fault
    source is constructed — and detonates — in whatever process runs the
    cell.
    """
    from repro.experiments.parallel import Cell

    if fault not in GUARD_FAULTS:
        raise ConfigError(f"unknown guard fault {fault!r}; known: {GUARD_FAULTS}")
    if fault in ("deadlock", "livelock"):
        rate = 0.0
    return Cell(
        scheme=scheme,
        spec=ScenarioSpec(
            "repro.experiments.chaos:guard_chaos_scenario",
            {"fault": fault, "cell_id": cell_id, "rate": rate, "at_cycle": at_cycle},
        ),
        effort=effort,
        seed=seed,
    )


def chaos_cell(
    scheme,
    effort,
    seed: int,
    mode: str = "ok",
    marker: str | None = None,
    cell_id: int = 0,
    rate: float = 0.05,
):
    """Build a chaos :class:`~repro.experiments.parallel.Cell` directly.

    ``Cell.for_scenario`` would *build* the scenario in the calling
    process — detonating the fault there instead of in the worker under
    test — so chaos cells are assembled from the raw spec.
    """
    from repro.experiments.parallel import Cell

    if mode not in CHAOS_MODES:
        raise ConfigError(f"unknown chaos mode {mode!r}; known: {CHAOS_MODES}")
    return Cell(
        scheme=scheme,
        spec=ScenarioSpec(
            "repro.experiments.chaos:chaos_scenario",
            {"mode": mode, "marker": marker, "cell_id": cell_id, "rate": rate},
        ),
        effort=effort,
        seed=seed,
    )
