"""Pin the watchdog vs drain-limit abort reporting of run_measurement.

``MeasurementResult.undrained_packets`` alone cannot distinguish "the
drain budget ran out while flits were still crawling forward" from "the
network deadlocked mid-drain"; ``MeasurementResult.abort`` must. Most
tests drive the simulator against a minimal fake network so each path is
hit deterministically and cheaply. :class:`TestDrainRule` pins the other
half on a real network: a drain-phase error that is not a stall (a
kernel invariant, a conservation violation) fails the run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_simulation
from repro.core.regions import RegionMap
from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.chaos import _GuardFaultSource, guard_chaos_cell
from repro.experiments.parallel import FaultPolicy, run_cells_detailed
from repro.experiments.runner import SCHEMES, Effort
from repro.noc.config import NocConfig
from repro.noc.guard import GuardConfig, RuntimeGuard
from repro.noc.sim import Simulator
from repro.noc.topology import LOCAL, MeshTopology
from repro.traffic.patterns import UniformPattern
from repro.traffic.synthetic import FixedLength, SyntheticTrafficSource
from repro.util.errors import GuardError, SimulationError


class _FakePolicy:
    def end_router_cycle(self, router, cycle):
        pass

    def end_network_cycle(self, net, cycle):
        pass


class FakeNet:
    """Just enough network surface for Simulator's loop and watchdog.

    ``move_until`` is the cycle after which flit movement freezes (the
    watchdog then sees no progress); ``eject_at`` is the cycle at which
    all window packets count as ejected (None = never).
    """

    def __init__(self, injected=8, ejected=3, move_until=None, eject_at=None):
        self.window_injected = injected
        self.window_ejected = ejected
        self._move_until = move_until
        self._eject_at = eject_at
        self.flits_moved = 0
        self.routers = ()
        self.policy = _FakePolicy()
        self.occupancy = np.array([True])
        # Nonzero so the watchdog sees buffered flits (its O(1) counter).
        self.buffered_total = 1
        # Ejection-progress mark inputs (the livelock watchdog).
        self.packets_ejected = ejected
        self.packets_in_flight = injected - ejected

    def refresh_congestion(self, cycle):
        if self._move_until is None or cycle < self._move_until:
            self.flits_moved += 1
        if self._eject_at is not None and cycle >= self._eject_at:
            self.window_ejected = self.window_injected
            self.packets_ejected = self.window_injected
            self.packets_in_flight = 0

    def deliver_events(self, cycle):
        pass

    def place_injections(self, cycle):
        pass

    def run_router_phases(self, cycle):
        pass

    def set_measure_window(self, window):
        pass

    def busy_routers(self):
        return []

    def total_buffered_flits(self):
        return self.window_injected - self.window_ejected


class TestAbortReporting:
    def test_clean_run_has_no_abort(self):
        sim = Simulator(FakeNet(injected=8, ejected=3, eject_at=15))
        res = sim.run_measurement(warmup=5, measure=5, drain_limit=100)
        assert res.drained
        assert res.abort is None
        assert res.undrained_packets == 0

    def test_watchdog_abort_during_drain(self):
        # Movement freezes after warmup+measure; the watchdog fires during
        # the drain phase and is reported, not raised.
        sim = Simulator(FakeNet(injected=8, ejected=3, move_until=10))
        sim.WATCHDOG_CYCLES = 30
        res = sim.run_measurement(warmup=5, measure=5, drain_limit=10_000)
        assert res.abort == "watchdog"
        assert not res.drained
        assert res.undrained_packets == 5
        # well before the drain budget: the watchdog cut the run short
        assert res.end_cycle < 10 + 10_000

    def test_drain_limit_abort(self):
        # Flits keep moving (no watchdog) but the window never drains.
        sim = Simulator(FakeNet(injected=8, ejected=3))
        res = sim.run_measurement(warmup=5, measure=5, drain_limit=50)
        assert res.abort == "drain_limit"
        assert not res.drained
        assert res.undrained_packets == 5
        assert res.end_cycle == 10 + 50

    def test_watchdog_still_raises_during_measurement(self):
        # A deadlock before the drain phase invalidates the window; that
        # path must keep raising rather than return a result.
        sim = Simulator(FakeNet(injected=8, ejected=3, move_until=0))
        sim.WATCHDOG_CYCLES = 10
        with pytest.raises(GuardError) as info:
            sim.run_measurement(warmup=50, measure=50, drain_limit=100)
        assert info.value.reason == "watchdog"
        assert info.value.failure_label == "Watchdog"

    def test_livelock_watchdog_abort_during_drain(self):
        # The movement watchdog's blind spot: flits keep moving forever
        # but no packet is ever ejected. The separate ejection mark trips.
        sim = Simulator(FakeNet(injected=8, ejected=3))  # moves, never ejects
        sim.EJECT_WATCHDOG_CYCLES = 30
        res = sim.run_measurement(warmup=5, measure=5, drain_limit=10_000)
        assert res.abort == "watchdog"
        assert not res.drained
        assert res.end_cycle < 10 + 10_000  # the ejection mark cut it short

    def test_livelock_watchdog_raises_during_measurement(self):
        sim = Simulator(FakeNet(injected=8, ejected=3))
        sim.EJECT_WATCHDOG_CYCLES = 30
        with pytest.raises(SimulationError, match="livelock"):
            sim.run_measurement(warmup=500, measure=500, drain_limit=100)


class _BodyIntoEmptyVc:
    """Traffic source that schedules a body flit into an empty VC at ``at``."""

    def __init__(self, at: int):
        self.at = at

    def tick(self, cycle, net):
        if cycle != self.at:
            return
        for router in net.routers:
            for invc in router.vcs:
                if invc.pkt is None and invc.port != LOCAL:
                    net.schedule_arrival(cycle + 1, router.node, invc.port, invc.vc, None)
                    return


def _busy_run(sabotage, guard: GuardConfig | None = None):
    """4x4 RAIR/XY under 0.6 uniform load, sabotaged at cycle 1000.

    Warmup 200 + measure 800: the fault lands on the first drain cycle,
    while the window's packets are still in flight.
    """
    cfg = NocConfig(width=4, height=4)
    sim, net = build_simulation(
        cfg, region_map=RegionMap.quadrants(MeshTopology(4, 4)),
        scheme="rair", routing="xy",
    )
    if guard is not None:
        RuntimeGuard(guard, "busy").install(sim)
    sim.add_traffic(SyntheticTrafficSource(
        nodes=range(cfg.num_nodes),
        rate=0.6,
        pattern=UniformPattern(net.topology),
        app_id=0,
        seed=1,
        lengths=FixedLength(2),
    ))
    sim.add_traffic(sabotage)
    return sim.run_measurement(warmup=200, measure=800)


class TestDrainRule:
    """A drain-phase abort means stuck stragglers or the drain limit."""

    def test_kernel_error_in_drain_raises(self):
        # Not a stall: the watchdog never fired, so it is no "watchdog" abort.
        with pytest.raises(SimulationError, match="body flit arrived at empty VC") as info:
            _busy_run(_BodyIntoEmptyVc(at=1000))
        assert not isinstance(info.value, GuardError)

    def test_conservation_trip_in_drain_raises(self):
        guard = GuardConfig(mode="strict", check_period=8)
        with pytest.raises(GuardError) as info:
            _busy_run(_GuardFaultSource("credit_leak", at_cycle=1000), guard)
        assert info.value.reason == "credit_conservation"

    def test_drain_phase_violation_fails_the_cell_uncached(self, tmp_path):
        smoke_window = Effort.SMOKE.warmup + Effort.SMOKE.measure
        cell = guard_chaos_cell(
            SCHEMES["RO_RR"], Effort.SMOKE, seed=7, fault="credit_leak",
            rate=0.3, at_cycle=smoke_window,
        )
        policy = FaultPolicy(guard=GuardConfig(mode="strict", check_period=1))
        results, report = run_cells_detailed(
            [cell], jobs=1, cache=tmp_path, policy=policy
        )
        (res,) = results
        assert not res.ok
        assert res.failure.error_type == "CreditConservation"
        assert report.failures == 1
        assert ResultCache(tmp_path).get(cache_key(cell)) is None
