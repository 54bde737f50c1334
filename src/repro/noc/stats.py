"""Statistics collection and analysis.

:class:`NetworkStats` records one row per *ejected* packet in packed typed
arrays (:mod:`array`: a cycle is 8 bytes, an id, length or hop count 4, a
flag 1, so 38 bytes a packet; a list costs 8 bytes a pointer plus, for
most cycle values, a 28-byte int object) and converts to NumPy arrays
lazily for analysis — the split the HPC guides recommend: pure-Python where
the work is per-event bookkeeping, vectorized NumPy where the work is
aggregate math.

The analysis API mirrors what the paper reports: average packet latency
(APL) per application over a measurement window, slowdowns between runs,
and reductions relative to a baseline scheme.
"""

from __future__ import annotations

import copy
import math
from array import array
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

    An empty set gives ``{"count": 0}``. Bucket ``i`` of ``hist`` counts
    latencies in ``[2^i, 2^(i+1))``; ``frexp`` gives the exact binary
    exponent, immune to the float rounding of ``log2`` at powers of 2.
    """
    a = np.asarray(samples, dtype=np.int64)
    if len(a) == 0:
        return {"count": 0}
    hist = np.bincount(np.frexp(a.astype(np.float64))[1] - 1)
    return {
        "count": int(len(a)),
        "mean": float(np.mean(a)),
        "p50": float(np.percentile(a, 50)),
        "p95": float(np.percentile(a, 95)),
        "p99": float(np.percentile(a, 99)),
        "max": float(np.max(a)),
        "hist": [int(x) for x in hist],
    }


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
        self._arrays: dict | None = None

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
        self._arrays = None

    # -- analysis ------------------------------------------------------------------
    def _as_arrays(self) -> dict:
        if self._arrays is None:
            # np.array copies: an array.array cannot grow while a NumPy
            # view still exports its buffer.
            self._arrays = {
                "inject": np.array(self._inject, dtype=np.int64),
                "eject": np.array(self._eject, dtype=np.int64),
                "app": np.array(self._app, dtype=np.int64),
                "src": np.array(self._src, dtype=np.int64),
                "dst": np.array(self._dst, dtype=np.int64),
                "length": np.array(self._length, dtype=np.int64),
                "hops": np.array(self._hops, dtype=np.int64),
                "is_global": np.array(self._is_global, dtype=bool),
                "is_adversarial": np.array(self._is_adversarial, dtype=bool),
            }
        return self._arrays

    def _mask(
        self,
        app: int | None,
        window: tuple[int, int] | None,
        include_adversarial: bool,
        only_global: bool | None,
    ) -> np.ndarray:
        a = self._as_arrays()
        mask = np.ones(len(a["inject"]), dtype=bool)
        if app is not None:
            mask &= a["app"] == app
        if window is not None:
            t0, t1 = window
            mask &= (a["inject"] >= t0) & (a["inject"] < t1)
        if not include_adversarial:
            mask &= ~a["is_adversarial"]
        if only_global is not None:
            mask &= a["is_global"] == only_global
        return mask

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
        a = self._as_arrays()
        mask = self._mask(app, window, include_adversarial, only_global)
        return (a["eject"] - a["inject"])[mask]

    def apl(self, **kw) -> float:
        """Average packet latency over the filtered set (NaN if empty)."""
        lat = self.latencies(**kw)
        return float(np.mean(lat)) if len(lat) else float("nan")

    def latency_classes(
        self, window: tuple[int, int], region_of
    ) -> dict[str, np.ndarray]:
        """Measured latencies in ``window`` split into the obs classes.

        Adversarial packets are excluded. ``native`` packets have an app id
        whose region (``region_of[dst]``) holds their destination;
        ``foreign`` are the rest; ``global`` are those that rode the global
        VCs, a subset of the other two. Each array is in ejection order.
        """
        a = self._as_arrays()
        mask = self._mask(None, window, False, None)
        lat = (a["eject"] - a["inject"])[mask]
        app = a["app"][mask]
        native = (app >= 0) & (np.asarray(region_of)[a["dst"][mask]] == app)
        return {
            "native": lat[native],
            "foreign": lat[~native],
            "global": lat[a["is_global"][mask]],
        }

    def packet_count(self, **kw) -> int:
        """Number of ejected packets matching the filters."""
        return int(self._mask(
            kw.get("app"), kw.get("window"), kw.get("include_adversarial", False),
            kw.get("only_global"),
        ).sum())

    def throughput_flits(self, window: tuple[int, int], app: int | None = None) -> float:
        """Accepted flits per cycle over an *ejection*-cycle window."""
        a = self._as_arrays()
        t0, t1 = window
        mask = (a["eject"] >= t0) & (a["eject"] < t1)
        if app is not None:
            mask &= a["app"] == app
        return float(a["length"][mask].sum()) / max(1, t1 - t0)

    def apps(self) -> list[int]:
        """Distinct application ids seen in the ejection log."""
        a = self._as_arrays()
        return sorted(int(x) for x in np.unique(a["app"]))

    def per_app_apl(self, window: tuple[int, int] | None = None) -> dict[int, float]:
        """APL per application (adversarial traffic excluded)."""
        return {app: self.apl(app=app, window=window) for app in self.apps() if app >= 0}

    def mean_hops(self, **kw) -> float:
        """Mean traversed hop count over the filtered packets."""
        a = self._as_arrays()
        mask = self._mask(
            kw.get("app"), kw.get("window"), kw.get("include_adversarial", False),
            kw.get("only_global"),
        )
        hops = a["hops"][mask]
        return float(hops.mean()) if len(hops) else float("nan")
