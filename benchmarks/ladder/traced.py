"""The cycle loop, driven from outside with a timer round every layer call.

``TracedLoop`` re-plays ``Simulator.step`` / ``Simulator._run_to`` /
``Simulator.run_measurement`` using only the public calls those methods
make on the network, the routers, the policy and the traffic sources, in
the same order, with ``perf_counter`` spans round each call. Because the
order is the simulator's own, a traced run must end in exactly the state
an untraced ``sim.run_measurement`` ends in; the ladder checks that on
every traced operation (identity check ii), which is also what keeps
this file honest when the kernel changes.

Spans are aggregated per protocol phase (warmup / measure / drain / pad)
and per layer — a per-call record of ~10^5 router calls would cost more
than the calls — and are written out by the caller when the run ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from benchmarks.ladder.adapter import ArbitrationPolicy, KernelTrace

#: layers that get a busy-seconds accumulator, in ``Simulator.step`` order
LAYERS = ("deliver", "tick", "inject", "va", "sa", "router_hook", "router_walk",
          "network_hook", "lookahead")
#: the spans that tile a cycle (``va``/``sa``/``router_hook`` sit inside
#: ``router_walk``; summing these four plus ``lookahead`` gives the loop's
#: covered time, and the traced wall minus that is the loop's own cost)
TOP_LEVEL = ("deliver", "tick", "inject", "router_walk", "network_hook", "lookahead")
_INSIDE_WALK = ("va", "sa", "router_hook")
COUNTS = ("va_calls", "sa_calls", "active_router_cycles", "ff_jumps",
          "ff_cycles_skipped", "stepped_cycles")


class CountingTrace(KernelTrace):
    """Counts kernel events; installing it also exercises the traced path."""

    __slots__ = ("va_grants", "sa_wins", "flit_sends", "credit_returns", "wakes",
                 "flips")

    def __init__(self) -> None:
        self.va_grants = self.sa_wins = self.flit_sends = 0
        self.credit_returns = self.wakes = self.flips = 0

    def va_grant(self, cycle, node, in_port, in_vc, out_port, out_vc, pid) -> None:
        self.va_grants += 1

    def sa_win(self, cycle, node, in_port, in_vc, out_port, pid) -> None:
        self.sa_wins += 1

    def flit_send(self, cycle, node, out_port, out_vc, pid, is_tail) -> None:
        self.flit_sends += 1

    def credit_return(self, cycle, node, port, vc) -> None:
        self.credit_returns += 1

    def wake(self, cycle, node) -> None:
        self.wakes += 1

    def dpa_flip(self, cycle, node, native_high, ovc_n, ovc_f) -> None:
        self.flips += 1


@dataclass
class PhaseSpan:
    """One protocol phase: real start/end plus per-layer busy time inside it."""

    name: str
    start_s: float
    end_s: float
    cycles: int
    busy_s: dict[str, float] = field(default_factory=dict)


class TracedLoop:
    """Externally driven, span-timed equivalent of one ``Simulator``."""

    def __init__(self, sim, net):
        self.net = net
        self.sources = list(sim.traffic_sources)
        self.cycle = sim.cycle
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.phases: list[PhaseSpan] = []
        policy = net.policy
        overrides = type(policy)
        self._router_hook = (
            policy.end_router_cycle
            if overrides.end_router_cycle is not ArbitrationPolicy.end_router_cycle
            else None
        )
        self._network_hook_live = (
            overrides.end_network_cycle is not ArbitrationPolicy.end_network_cycle
        )
        # Same two conditions as Simulator._ff_eligible, from public names.
        self._fast_forward = (
            sim.fast_forward
            and all(hasattr(s, "next_injection_cycle") for s in self.sources)
            and (
                not self._network_hook_live
                or overrides.fast_forward_idle
                is not ArbitrationPolicy.fast_forward_idle
            )
        )

    # -- one cycle, in Simulator.step's order ---------------------------------
    def step(self) -> None:
        pc = time.perf_counter
        net = self.net
        cycle = self.cycle
        busy = self.busy
        t0 = pc()
        net.refresh_congestion(cycle)
        net.deliver_events(cycle)
        t1 = pc()
        for source in self.sources:
            source.tick(cycle, net)
        t2 = pc()
        net.place_injections(cycle)
        t3 = pc()
        va = sa = hook_s = 0.0
        va_calls = sa_calls = 0
        routers = net.routers
        hook = self._router_hook
        nodes = net.active_nodes()
        for node in nodes:
            router = routers[node]
            if router.va_pending:
                a = pc()
                router.do_va(cycle)
                va += pc() - a
                va_calls += 1
            if router.sa_pending:
                a = pc()
                router.do_sa(cycle)
                sa += pc() - a
                sa_calls += 1
            if hook is not None and router.busy_vcs:
                a = pc()
                hook(router, cycle)
                hook_s += pc() - a
        t4 = pc()
        net.policy.end_network_cycle(net, cycle)
        t5 = pc()
        busy["deliver"] += t1 - t0
        busy["tick"] += t2 - t1
        busy["inject"] += t3 - t2
        busy["router_walk"] += t4 - t3
        busy["va"] += va
        busy["sa"] += sa
        busy["router_hook"] += hook_s
        if self._network_hook_live:
            busy["network_hook"] += t5 - t4
        counts = self.counts
        counts["va_calls"] += va_calls
        counts["sa_calls"] += sa_calls
        counts["active_router_cycles"] += len(nodes)
        counts["stepped_cycles"] += 1
        self.cycle = cycle + 1

    # -- Simulator._run_to: fast-forward provably idle gaps ---------------------
    def run_to(self, end: int) -> None:
        if not self._fast_forward:
            while self.cycle < end:
                self.step()
            return
        pc = time.perf_counter
        net = self.net
        counts = self.counts
        while self.cycle < end:
            if net.idle():
                cycle = self.cycle
                target = end
                a = pc()
                for source in self.sources:
                    if target <= cycle:
                        break
                    nxt = source.next_injection_cycle(cycle, target, net)
                    if nxt is not None and nxt < target:
                        target = nxt
                self.busy["lookahead"] += pc() - a
                if target > cycle:
                    net.skip_idle_cycles(cycle, target)
                    net.policy.fast_forward_idle(net, cycle, target)
                    counts["ff_jumps"] += 1
                    counts["ff_cycles_skipped"] += target - cycle
                    self.cycle = target
                    continue
            self.step()

    # -- Simulator.run_measurement: warmup, measure, drain, then pad ------------
    def run_measurement(
        self, warmup: int, measure: int, drain_limit: int, end_cycle: int | None = None
    ) -> tuple[int, int]:
        """Run the protocol; returns the measurement window."""
        net = self.net
        window = (self.cycle + warmup, self.cycle + warmup + measure)
        net.set_measure_window(window)
        self._phase("warmup", lambda: self.run_to(window[0]))
        self._phase("measure", lambda: self.run_to(window[1]))
        deadline = self.cycle + drain_limit

        def drain() -> None:
            while self.cycle < deadline and net.window_ejected < net.window_injected:
                self.step()

        self._phase("drain", drain)
        if end_cycle is not None and end_cycle > self.cycle:
            self._phase("pad", lambda: self.run_to(end_cycle))
        return window

    def _phase(self, name: str, body) -> None:
        before = dict(self.busy)
        start_cycle = self.cycle
        start = time.perf_counter()
        body()
        end = time.perf_counter()
        self.phases.append(
            PhaseSpan(
                name=name,
                start_s=start,
                end_s=end,
                cycles=self.cycle - start_cycle,
                busy_s={k: self.busy[k] - before[k] for k in LAYERS},
            )
        )

    # -- summaries ---------------------------------------------------------------
    def phase_seconds(self, name: str) -> float:
        return sum(p.end_s - p.start_s for p in self.phases if p.name == name)

    def phase_cycles(self, name: str) -> int:
        return sum(p.cycles for p in self.phases if p.name == name)

    def wall_s(self) -> float:
        return sum(p.end_s - p.start_s for p in self.phases)

    def covered_s(self) -> float:
        """Time inside the top-level layer spans (the rest is the loop's own)."""
        return sum(self.busy[k] for k in TOP_LEVEL)

    def span_rows(self, op_id: str) -> list[dict]:
        """Span records for the trace file: op -> phase -> layer aggregate."""
        if not self.phases:
            return []
        t0 = self.phases[0].start_s
        rows = [
            {
                "id": op_id,
                "parent": None,
                "name": "measurement",
                "start_s": 0.0,
                "end_s": self.phases[-1].end_s - t0,
            }
        ]
        for phase in self.phases:
            pid = f"{op_id}/{phase.name}"
            rows.append(
                {
                    "id": pid,
                    "parent": op_id,
                    "name": phase.name,
                    "start_s": phase.start_s - t0,
                    "end_s": phase.end_s - t0,
                    "cycles": phase.cycles,
                }
            )
            for layer, seconds in phase.busy_s.items():
                parent = f"{pid}/router_walk" if layer in _INSIDE_WALK else pid
                rows.append(
                    {
                        "id": f"{pid}/{layer}",
                        "parent": parent,
                        "name": layer,
                        "busy_s": seconds,
                    }
                )
        return rows
