"""Statistics collection and analysis.

:class:`NetworkStats` records one row per *ejected* packet in packed typed
arrays (:mod:`array`: a cycle is 8 bytes, an id, length or hop count 4, a
flag 1, so 38 bytes a packet; a list costs 8 bytes a pointer plus, for
most cycle values, a 28-byte int object). A query walks those columns
once, keeping an exact ``(latency sum, packet count)`` per app, so a run's
summary allocates O(apps), not O(packets); only ``latencies`` and
``latency_classes`` build NumPy arrays, from the matching rows alone.

The analysis API mirrors what the paper reports: average packet latency
(APL) per application over a measurement window, slowdowns between runs,
and reductions relative to a baseline scheme.
"""

from __future__ import annotations

import copy
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

__all__ = ["NetworkStats", "RunMetrics", "latency_summary"]


@dataclass
class RunMetrics:
    """Lightweight wall-clock counters for one measurement run.

    Filled in by :meth:`repro.noc.sim.Simulator.run_measurement`:
    ``phase_cycles`` / ``phase_seconds`` are keyed by the protocol phases
    (``warmup`` / ``measure`` / ``drain``). A run restored from the result
    cache carries the timings of the original computation; whether it was
    a hit, and how many attempts it took, is recorded on the engine's
    ``CellResult``, not here. Cache entries and the service wire carry
    these counters through the generic codec
    (:func:`repro.experiments.cache.encode_value`), so a new counter is one
    field line here and nothing else.
    """

    wall_time_s: float = 0.0
    cycles: int = 0
    phase_cycles: dict[str, int] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: periodic observability samples taken during the run (0 = no
    #: collector attached; see :mod:`repro.obs`)
    obs_samples: int = 0
    #: observability events recorded during the run (DPA flips + per-class
    #: latency observations)
    obs_events: int = 0
    #: idle-gap jumps the fast-forward path took, and the total cycles it
    #: skipped (0 = naive ticking or a workload with no idle gaps)
    ff_jumps: int = 0
    ff_cycles_skipped: int = 0
    #: packet allocations served from the network's free-list pool vs
    #: freshly constructed (per-network totals at measurement end)
    pool_hits: int = 0
    pool_allocs: int = 0

    @property
    def cycles_per_sec(self) -> float:
        """Simulated cycles per wall-clock second.

        Returns 0.0 for any run that cannot meaningfully be rated: no
        cycles executed yet, a wall time at or below the clock resolution
        (a cache-restored or sub-millisecond run can legitimately carry
        ``wall_time_s == 0.0`` with ``cycles > 0`` — dividing would either
        crash or report an absurd rate), or a non-finite wall time from a
        corrupted metrics payload.
        """
        if self.cycles <= 0 or self.wall_time_s <= 0.0:
            return 0.0
        if not math.isfinite(self.wall_time_s):
            return 0.0
        return self.cycles / self.wall_time_s

    def record_phase(self, name: str, cycles: int, seconds: float) -> None:
        """Accumulate one protocol phase into the totals."""
        self.phase_cycles[name] = self.phase_cycles.get(name, 0) + cycles
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds
        self.cycles += cycles
        self.wall_time_s += seconds

    def snapshot(self) -> "RunMetrics":
        """Independent (deep) copy of the current counters.

        :meth:`~repro.noc.sim.Simulator.run_measurement` hands each result
        a snapshot so later runs on the same simulator cannot mutate
        results already returned.
        """
        return copy.deepcopy(self)


def latency_summary(samples) -> dict:
    """Count, mean, p50/p95/p99, max and log2 histogram of one latency set.

    An empty set gives ``{"count": 0}``; latencies are at least 1. The
    percentiles are NumPy's default (``linear``) rule, computed here over
    one sort because ``np.percentile`` imports ``numpy.ma`` on first use
    (about 2 MB a process); the mean is one exact division of the integer
    sum. Bucket ``i`` of ``hist`` counts latencies in ``[2^i, 2^(i+1))``,
    found by bisecting the sorted copy at the powers of two, so the
    buckets are exact and the set is copied once.
    """
    a = np.asarray(samples, dtype=np.int64)
    n = len(a)
    if n == 0:
        return {"count": 0}
    ordered = np.sort(a)
    edges = 1 << np.arange(int(ordered[-1]).bit_length() + 1, dtype=np.int64)
    hist = np.diff(np.searchsorted(ordered, edges))
    return {
        "count": n,
        "mean": int(a.sum()) / n,
        "p50": _percentile(ordered, 50),
        "p95": _percentile(ordered, 95),
        "p99": _percentile(ordered, 99),
        "max": float(ordered[-1]),
        "hist": [int(x) for x in hist],
    }


def _percentile(ordered, q: int) -> float:
    """``np.percentile(ordered, q)`` of a sorted int array, bit for bit.

    The virtual index ``(n - 1) * (q / 100)`` falls between two ranks;
    the lerp between them runs from the lower rank below a fraction of
    0.5 and back from the upper one from 0.5 on, as NumPy's ``_lerp``
    does.
    """
    n = len(ordered)
    v = (n - 1) * (q / 100)
    lo = int(v)
    t = v - lo
    a = int(ordered[lo])
    b = int(ordered[min(lo + 1, n - 1)])
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _mean(totals) -> float:
    """Mean latency of ``[sum, count]`` pairs: one exact division, NaN if none."""
    count = sum(n for _, n in totals)
    return sum(s for s, _ in totals) / count if count else float("nan")


class NetworkStats:
    """Per-packet ejection log plus running counters."""

    def __init__(self) -> None:
        # Typecodes: "q" int64 (cycles), "i" int32, "b" int8 (flags).
        self._inject = array("q")
        self._eject = array("q")
        self._app = array("i")
        self._src = array("i")
        self._dst = array("i")
        self._length = array("i")
        self._hops = array("i")
        self._is_global = array("b")
        self._is_adversarial = array("b")
        self.packets_ejected = 0

    # -- recording (hot path) ----------------------------------------------------
    def record_ejection(self, pkt, eject_cycle: int) -> None:
        """Log a fully ejected packet."""
        self._inject.append(pkt.inject_cycle)
        self._eject.append(eject_cycle)
        self._app.append(pkt.app_id)
        self._src.append(pkt.src)
        self._dst.append(pkt.dst)
        self._length.append(pkt.length)
        self._hops.append(pkt.hops)
        self._is_global.append(pkt.is_global)
        self._is_adversarial.append(pkt.is_adversarial)
        self.packets_ejected += 1

    # -- analysis ------------------------------------------------------------------
    def _matching(self, app, window, include_adversarial, only_global):
        """Yield ``(app, dst, is_global, latency)`` of each row passing the filters.

        Rows come in ejection order, straight off the packed columns; the
        walk itself holds one row at a time.
        """
        lo, hi = window if window is not None else (-math.inf, math.inf)
        for inject, eject, a, dst, is_global, adversarial in zip(
            self._inject, self._eject, self._app, self._dst, self._is_global,
            self._is_adversarial,
        ):
            if (
                lo <= inject < hi
                and (app is None or a == app)
                and (include_adversarial or not adversarial)
                and (only_global is None or is_global == only_global)
            ):
                yield a, dst, is_global, eject - inject

    def _totals(self, *filters) -> dict[int, list[int]]:
        """Exact ``[latency sum, packet count]`` per app id over the filtered rows."""
        totals: dict[int, list[int]] = defaultdict(lambda: [0, 0])
        for app, _, _, latency in self._matching(*filters):
            total = totals[app]
            total[0] += latency
            total[1] += 1
        return totals

    def latencies(
        self,
        app: int | None = None,
        window: tuple[int, int] | None = None,
        include_adversarial: bool = False,
        only_global: bool | None = None,
    ) -> np.ndarray:
        """Packet latencies (eject - inject) matching the filters.

        ``window`` filters on *injection* cycle — the paper's measurement
        protocol (measure packets injected during the measurement window,
        then drain).
        """
        rows = self._matching(app, window, include_adversarial, only_global)
        return np.fromiter((latency for *_, latency in rows), dtype=np.int64)

    def apl(
        self,
        app: int | None = None,
        window: tuple[int, int] | None = None,
        include_adversarial: bool = False,
        only_global: bool | None = None,
    ) -> float:
        """Average packet latency over the filtered set (NaN if empty).

        The sum is an exact integer and ``int / int`` rounds once, so this
        equals the float64 mean of :meth:`latencies` while the sum stays
        below 2**53.
        """
        totals = self._totals(app, window, include_adversarial, only_global)
        return _mean(totals.values())

    def packet_count(
        self,
        app: int | None = None,
        window: tuple[int, int] | None = None,
        include_adversarial: bool = False,
        only_global: bool | None = None,
    ) -> int:
        """Number of ejected packets matching the filters."""
        totals = self._totals(app, window, include_adversarial, only_global)
        return sum(n for _, n in totals.values())

    def latency_classes(
        self, window: tuple[int, int], region_of
    ) -> dict[str, np.ndarray]:
        """Measured latencies in ``window`` split into the obs classes.

        Adversarial packets are excluded. ``native`` packets have an app id
        whose region (``region_of[dst]``) holds their destination;
        ``foreign`` are the rest; ``global`` are those that rode the global
        VCs, a subset of the other two. Each array is in ejection order.
        """
        classes = {"native": array("q"), "foreign": array("q"), "global": array("q")}
        native, foreign, global_ = classes.values()
        for app, dst, is_global, latency in self._matching(None, window, False, None):
            own = app >= 0 and region_of[dst] == app
            (native if own else foreign).append(latency)
            if is_global:
                global_.append(latency)
        # Views of the packed columns, not copies.
        return {cls: np.frombuffer(lat, dtype=np.int64) for cls, lat in classes.items()}

    def apps(self) -> list[int]:
        """Distinct application ids seen in the ejection log."""
        return sorted(set(self._app))

    def per_app_apl(self, window: tuple[int, int] | None = None) -> dict[int, float]:
        """APL per application (adversarial traffic excluded; NaN if none in ``window``)."""
        return self._per_app(self._totals(None, window, False, None))

    def _per_app(self, totals) -> dict[int, float]:
        return {app: _mean([totals.get(app, (0, 0))]) for app in self.apps() if app >= 0}

    def summary(
        self, window: tuple[int, int] | None = None
    ) -> tuple[float, dict[int, float], int]:
        """``(apl, per_app_apl, packet_count)`` over ``window`` in one walk.

        Each equals its own query with the default filters (adversarial
        traffic excluded), bit for bit; asked one by one, they walk the
        log three times.
        """
        totals = self._totals(None, window, False, None)
        count = sum(n for _, n in totals.values())
        return _mean(totals.values()), self._per_app(totals), count
