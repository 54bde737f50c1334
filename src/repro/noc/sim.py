"""Simulation driver: the per-cycle phase loop plus measurement protocol.

Phase order within a cycle (fixed, network-wide, so results are exactly
reproducible):

1. deliver scheduled flit arrivals and credit returns,
2. traffic sources generate packets (into source queues),
3. queued packets enter idle LOCAL input VCs (injection link),
4. VC allocation at every *active* router (one with packets resident —
   the network's wake lists track exactly those; idle routers cost
   nothing),
5. switch allocation + traversal at every active router,
6. policy end-of-cycle hooks (DPA update per router, STC ranking
   network-wide).

The paper's measurement protocol (Section V.A) is implemented by
:meth:`Simulator.run_measurement`: warm up for ``warmup`` cycles, tag the
next ``measure`` cycles as the measurement window, keep simulating (with
traffic still flowing) until every packet injected inside the window has
ejected — bounded by ``drain_limit`` — and report statistics for window
packets only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.arbitration.base import ArbitrationPolicy
from repro.noc.network import Network
from repro.noc.stats import RunMetrics
from repro.util.errors import GuardError, SimulationError

__all__ = ["Simulator", "MeasurementResult"]

#: the :class:`GuardError` reasons that mean "the drain's stragglers are
#: stuck": the unguarded watchdog and the guard's stall classifications
_STALL_REASONS = ("watchdog", "deadlock", "livelock", "starvation")


@dataclass
class MeasurementResult:
    """Outcome of one warmup/measure/drain run.

    ``abort`` says why a run failed to drain, and is ``None`` for a clean
    run. A drain-phase abort means one of two things. Either the
    stragglers are stuck: ``"watchdog"`` (no runtime guard installed; no
    flit moved for :attr:`Simulator.WATCHDOG_CYCLES` cycles, or nothing
    ejected for :attr:`Simulator.EJECT_WATCHDOG_CYCLES`), or, with a
    :class:`~repro.noc.guard.RuntimeGuard` installed, its classification
    ``"deadlock"`` / ``"livelock"`` / ``"starvation"``. Or
    ``"drain_limit"``: the drain budget ran out while flits were still
    moving. Any other error — a kernel invariant, a conservation
    violation — fails the run in every phase. ``undrained_packets`` alone
    cannot tell these apart.
    """

    warmup: int
    measure: int
    window: tuple[int, int]
    end_cycle: int
    drained: bool
    #: packets injected in the window that never ejected before drain_limit
    undrained_packets: int
    #: None (clean) | "watchdog" | "drain_limit" | "deadlock" |
    #: "livelock" | "starvation" (see class docstring)
    abort: str | None = None
    #: wall-clock / cycle counters for this run
    metrics: RunMetrics = field(default_factory=RunMetrics)
    #: optional observability summary (:class:`repro.obs.ObsSummary`)
    #: produced when a collector was installed on the simulator. Untyped
    #: on purpose: ``repro.noc`` never imports ``repro.obs``.
    obs: object | None = None


class Simulator:
    """Drives a :class:`~repro.noc.network.Network` cycle by cycle."""

    #: cycles without any flit movement (while flits are buffered) that
    #: trigger the stall watchdog
    WATCHDOG_CYCLES = 5000
    #: cycles without any packet *ejection* (while packets are in flight)
    #: that trigger the ejection watchdog. Tracked separately from flit
    #: movement: a livelocked network keeps moving flits forever — e.g.
    #: packets circling without ever reaching LOCAL — and is invisible to
    #: the movement watchdog. Deliberately larger than WATCHDOG_CYCLES so
    #: a full stall is classified by the movement watchdog first.
    EJECT_WATCHDOG_CYCLES = 10_000

    def __init__(
        self,
        network: Network,
        traffic_sources=(),
        fast_forward: bool = True,
    ):
        self.network = network
        self.traffic_sources = list(traffic_sources)
        self.cycle = 0
        # Idle-cycle fast-forward (see _run_to); False is the naive loop.
        self.fast_forward = fast_forward
        self._last_moved = 0
        self._last_progress_cycle = 0
        self._last_ejected = 0
        self._last_eject_cycle = 0
        self.metrics = RunMetrics()
        self._closed = False
        #: optional runtime invariant guard (duck-typed — anything with
        #: ``next_check`` / ``check(cycle, network)`` /
        #: ``on_stall(cycle, network, trip)``; see
        #: :class:`repro.noc.guard.RuntimeGuard`, whose ``install`` sets
        #: this). ``None`` costs one pointer comparison per cycle.
        self.guard = None
        #: optional observability collector (duck-typed — anything with
        #: ``next_sample`` / ``take_sample(cycle, network)`` /
        #: ``finalize(end_cycle)`` / ``close()``; see
        #: :class:`repro.obs.collector.MetricsCollector`, whose ``install``
        #: sets this). ``None`` costs one pointer comparison per cycle.
        self.obs = None

    def add_traffic(self, source) -> None:
        """Register a traffic source (object with ``tick(cycle, network)``)."""
        self.traffic_sources.append(source)

    def close(self) -> None:
        """Release the run once it is summarised; idempotent.

        Breaks the network's reference cycles (:meth:`Network.close`) and
        drops the sources, the collector and the guard (which points back
        at this simulator), so reference counting frees the whole run when
        its owner lets go of it, without waiting for a cyclic collection.
        The collector is closed first, which removes its spool file. The
        network's statistics stay readable; :meth:`run`,
        :meth:`run_until_drained` and :meth:`run_measurement` raise
        :class:`SimulationError` from then on.
        """
        self._closed = True
        if self.obs is not None:
            self.obs.close()
        self.network.close()
        self.traffic_sources.clear()
        self.obs = None
        self.guard = None

    # -- core loop -----------------------------------------------------------------
    def step(self) -> None:
        """Advance the simulation by one cycle."""
        net = self.network
        cycle = self.cycle
        net.refresh_congestion(cycle)
        net.deliver_events(cycle)
        for source in self.traffic_sources:
            source.tick(cycle, net)
        net.place_injections(cycle)
        net.run_router_phases(cycle)
        net.policy.end_network_cycle(net, cycle)
        obs = self.obs
        if obs is not None and cycle >= obs.next_sample:
            obs.take_sample(cycle, net)
        guard = self.guard
        if guard is not None and cycle >= guard.next_check:
            guard.check(cycle, net)
        self._watchdog(cycle)
        self.cycle = cycle + 1

    def run(self, cycles: int) -> None:
        """Run ``cycles`` additional cycles."""
        self._check_open()
        self._run_to(self.cycle + cycles)

    def _check_open(self) -> None:
        """Refuse to drive a closed simulation (once per call, not per cycle)."""
        if self._closed:
            raise SimulationError(
                f"this simulation ({self.network.config.describe()}) was "
                f"closed at cycle {self.cycle} and cannot run again; build a "
                "new one"
            )

    def _ff_eligible(self) -> bool:
        """Whether fast-forward may engage with the installed sources/policy.

        Two provability requirements (checked per :meth:`_run_to` call —
        sources can be added between runs):

        * every traffic source exposes ``next_injection_cycle`` (the
          lookahead that replays the naive per-cycle RNG draw order, so
          closed-loop sources like the PARSEC model simply opt out), and
        * the arbitration policy is idle-invariant: either it keeps the
          base no-op ``end_network_cycle``, or it overrides
          ``fast_forward_idle`` to replay its (idempotent-during-idle)
          boundary work over a skipped range.
        """
        for source in self.traffic_sources:
            if not hasattr(source, "next_injection_cycle"):
                return False
        # getattr, not attribute access: duck-typed policies (test fakes)
        # need not inherit the base class — they fall back to naive ticking
        # unless they provide the hook themselves.
        pol = type(self.network.policy)
        if getattr(pol, "end_network_cycle", None) is ArbitrationPolicy.end_network_cycle:
            return True
        ffi = getattr(pol, "fast_forward_idle", None)
        return ffi is not None and ffi is not ArbitrationPolicy.fast_forward_idle

    def _run_to(self, end: int) -> None:
        """Advance to cycle ``end``, fast-forwarding provably idle gaps.

        When the network is idle (nothing queued, buffered, scheduled, or
        in flight) the only event that can change its state is a future
        injection, so the clock may jump straight to the earliest of: the
        next injection any source will produce (each source scans forward
        consuming its RNG in exactly the naive per-cycle order and buffers
        the packets it builds — see
        ``SyntheticTrafficSource.next_injection_cycle``), the next
        observability sample (taken at the identical cycle with identical
        idle state, keeping the JSONL stream byte-identical), or ``end``
        itself. Skipped-range bookkeeping (congestion refresh, policy
        boundaries, watchdog progress marks) reproduces the naive per-cycle
        loop's end state exactly — the fast-forwarded simulation is
        bit-identical, just never pays for empty cycles.
        """
        if not (self.fast_forward and self._ff_eligible()):
            while self.cycle < end:
                self.step()
            return
        net = self.network
        idle = net.idle
        sources = self.traffic_sources
        metrics = self.metrics
        while self.cycle < end:
            if idle():
                cycle = self.cycle
                target = end
                obs = self.obs
                if obs is not None:
                    ns = obs.next_sample
                    if ns <= cycle:
                        target = cycle  # sample due now: tick normally
                    elif ns < target:
                        target = ns
                for source in sources:
                    if target <= cycle:
                        break
                    nxt = source.next_injection_cycle(cycle, target, net)
                    if nxt is not None and nxt < target:
                        target = nxt
                if target > cycle:
                    net.skip_idle_cycles(cycle, target)
                    net.policy.fast_forward_idle(net, cycle, target)
                    # Watchdog end state of ticking idle cycles naively:
                    # every one of them resets the progress marks (an idle
                    # network has no packets in flight, so the ejection
                    # mark resets every cycle too).
                    self._last_moved = net.flits_moved
                    self._last_progress_cycle = target - 1
                    self._last_ejected = net.packets_ejected
                    self._last_eject_cycle = target - 1
                    metrics.ff_jumps += 1
                    metrics.ff_cycles_skipped += target - cycle
                    self.cycle = target
                    continue
            self.step()

    def run_until_drained(self, limit: int) -> bool:
        """Step until the network is idle; returns False if ``limit`` hit."""
        self._check_open()
        for _ in range(limit):
            if self.network.idle():
                return True
            self.step()
        return self.network.idle()

    def _watchdog(self, cycle: int) -> None:
        """Two-mark stall watchdog: flit movement and packet ejection.

        The movement mark catches full stalls (nothing moved while flits
        are buffered). The ejection mark catches livelocks the movement
        mark is blind to: flits keep moving but no packet ever reaches its
        destination. Either trip goes to :meth:`_stall`, which hands the
        forensics to an installed runtime guard or raises an unclassified
        :class:`GuardError` (``reason="watchdog"``) otherwise.
        """
        net = self.network
        ejected = net.packets_ejected
        eject_stalled = ejected == self._last_ejected and net.packets_in_flight
        if not eject_stalled:
            self._last_ejected = ejected
            self._last_eject_cycle = cycle
        moved = net.flits_moved
        if moved != self._last_moved or not net.buffered_total:
            self._last_moved = moved
            self._last_progress_cycle = cycle
            if (
                eject_stalled
                and cycle - self._last_eject_cycle >= self.EJECT_WATCHDOG_CYCLES
            ):
                self._stall(cycle, "ejection")
            return
        if cycle - self._last_progress_cycle >= self.WATCHDOG_CYCLES:
            self._stall(cycle, "progress")

    def _stall(self, cycle: int, trip: str) -> None:
        """Report a watchdog trip (``trip``: ``"progress"`` | ``"ejection"``)."""
        net = self.network
        guard = self.guard
        if guard is not None:
            guard.on_stall(cycle, net, trip)  # classifies; raises GuardError
            return  # pragma: no cover - on_stall never returns
        if trip == "ejection":
            raise GuardError(
                f"no packet ejected for {self.EJECT_WATCHDOG_CYCLES} cycles "
                f"at cycle {cycle} while flits kept moving — livelock with "
                f"{net.packets_in_flight} packet(s) in flight",
                reason="watchdog",
            )
        stuck = [(r.node, r.busy_vcs) for r in net.busy_routers()][:10]
        raise GuardError(
            f"no flit moved for {self.WATCHDOG_CYCLES} cycles at cycle "
            f"{cycle} with {net.total_buffered_flits()} flits buffered; "
            f"busy routers (node, busy_vcs): {stuck}",
            reason="watchdog",
        )

    # -- measurement protocol ----------------------------------------------------------
    def run_measurement(
        self, warmup: int, measure: int, drain_limit: int | None = None
    ) -> MeasurementResult:
        """Warm up, measure, and drain (paper Section V.A protocol).

        Any error during warmup or measurement raises (the run produced no
        usable window). During the *drain* phase, a stall — the watchdog,
        or a guard's ``deadlock`` / ``livelock`` / ``starvation`` — is
        caught and reported as ``abort=<reason>``: the measured packets
        that did eject remain valid, only the stragglers are stuck. Every
        other error raises in the drain phase too.
        """
        self._check_open()
        if drain_limit is None:
            drain_limit = 10 * (warmup + measure) + 20_000
        net = self.network
        window = (self.cycle + warmup, self.cycle + warmup + measure)
        net.set_measure_window(window)
        abort = None
        t0 = time.perf_counter()
        self.run(warmup)
        t1 = time.perf_counter()
        self.run(measure)
        t2 = time.perf_counter()
        drain_start = self.cycle
        drain_deadline = self.cycle + drain_limit
        try:
            while (
                self.cycle < drain_deadline
                and net.window_ejected < net.window_injected
            ):
                self.step()
        except GuardError as exc:
            if exc.reason not in _STALL_REASONS:
                raise
            abort = exc.reason
        t3 = time.perf_counter()
        undrained = net.window_injected - net.window_ejected
        if abort is None and undrained > 0:
            abort = "drain_limit"
        guard = self.guard
        if guard is not None and abort is None:
            # Closing sweep at the measurement boundary, regardless of the
            # sampling period: a clean run must end conservation-clean. A
            # violation here propagates (the run's results are suspect).
            guard.check(self.cycle, net)
        self.metrics.record_phase("warmup", warmup, t1 - t0)
        self.metrics.record_phase("measure", measure, t2 - t1)
        self.metrics.record_phase("drain", self.cycle - drain_start, t3 - t2)
        obs = self.obs
        obs_summary = None
        if obs is not None:
            obs_summary = obs.finalize(self.cycle)
            self.metrics.obs_samples = obs_summary.samples
            self.metrics.obs_events = obs_summary.events
        # Pool counters are per-network totals; for the standard
        # one-measurement-per-simulator pattern they are this run's numbers.
        # (getattr: duck-typed fake networks in tests carry no pool.)
        pool = getattr(net, "packet_pool", None)
        if pool is not None:
            self.metrics.pool_hits = pool.hits
            self.metrics.pool_allocs = pool.allocs
        return MeasurementResult(
            warmup=warmup,
            measure=measure,
            window=window,
            end_cycle=self.cycle,
            drained=undrained == 0,
            undrained_packets=max(0, undrained),
            abort=abort,
            # Snapshot, not alias: successive runs on one simulator keep
            # accumulating into self.metrics, and an aliased result would
            # silently mutate with them.
            metrics=self.metrics.snapshot(),
            obs=obs_summary,
        )
