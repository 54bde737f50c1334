"""The metrics collector: trace hooks + periodic sampling + summaries.

:class:`MetricsCollector` combines three cheap capture mechanisms:

* the :class:`~repro.noc.trace.KernelTrace` hook protocol, of which it
  overrides only ``dpa_flip`` — the kernel emits that event on priority
  *transitions* only, so the DPA hysteresis timeline costs nothing on
  no-change cycles;
* a periodic sampler called from :meth:`repro.noc.sim.Simulator.step`
  every ``sample_period`` cycles, snapshotting per-router buffered flits,
  native/foreign occupied-VC counters, and per-link flit deltas;
* the kernel's own ejection log (:class:`~repro.noc.stats.NetworkStats`),
  queried once at :meth:`~MetricsCollector.finalize` for the measured
  packets' latencies split native / foreign (destination-region
  membership) and global (global-VC packets, a subset).

Records are encoded (:func:`~repro.obs.exporters.dumps_record`) and
written to a spool file in the obs dir the moment they are made, so the
collector's memory does not grow with the run's length; with no obs dir
it encodes nothing and keeps only the summary counters.

The collector is single-use per simulator but :meth:`finalize` is
idempotent: it copies the spool and appends the latency/summary records
without consuming anything, so a second ``run_measurement`` on the same
simulator extends the time series and re-finalizes a longer stream whose
latency classes cover the latest measurement window. :meth:`close`
(called by :meth:`repro.noc.sim.Simulator.close`) removes the spool, so
a run that raises before its finalize leaves no file behind.

Nothing in ``repro.noc`` imports this module — the simulator talks to the
collector through the duck-typed ``next_sample`` / ``take_sample`` /
``finalize`` surface, keeping the core free of observability concerns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.noc.stats import latency_summary
from repro.noc.trace import KernelTrace
from repro.obs.exporters import dumps_record, sanitize_name, write_stream
from repro.obs.schema import LATENCY_CLASSES, SCHEMA_VERSION
from repro.util.errors import ConfigError

__all__ = ["ObsConfig", "ObsSummary", "MetricsCollector"]


@dataclass(frozen=True)
class ObsConfig:
    """Observability settings, carried by the engine's ``FaultPolicy``.

    Frozen and picklable so it crosses process boundaries with the cell.
    It is *execution* policy: it never enters result-cache keys (the
    simulation is bit-identical with or without a collector installed).

    ``dir=None`` records no stream: the run still gets an
    :class:`ObsSummary`, and the collector keeps only its counters. A
    run's file stem is its own, not the sweep's: it is the collector's
    ``name``.
    """

    dir: str | None
    sample_period: int = 64

    def __post_init__(self) -> None:
        if self.sample_period < 1:
            raise ConfigError(
                f"sample_period must be >= 1, got {self.sample_period}"
            )


@dataclass
class ObsSummary:
    """Compact per-run digest of the full observability stream.

    Fully simulation-determined (no wall-clock anywhere), so two runs of
    the same cell — serial, in a worker, or restored from the result
    cache — compare equal. ``jsonl_path`` is excluded from comparisons:
    it reflects where *this* invocation wrote the stream, not what the
    simulation did. It is stored and sent through the generic codec
    (:func:`repro.experiments.cache.encode_value`), which keeps int- and
    tuple-keyed dicts as they are, so a new field is one line here.
    """

    end_cycle: int
    sample_period: int
    samples: int
    events: int
    dpa_flips: int
    dpa_flips_by_node: dict[int, int]
    #: class -> {count, mean, p50, p95, p99, max} (stats absent when count=0)
    latency: dict[str, dict]
    #: {mean, max, max_node, max_port} flit utilization per link
    link_util: dict
    schema: int = SCHEMA_VERSION
    jsonl_path: str | None = field(default=None, compare=False)


class MetricsCollector(KernelTrace):
    """Records the observability stream for one simulator.

    Install with :meth:`install` *before* ``run_measurement``; the
    simulator drives sampling and finalization. The collector claims the
    network's trace slot (for ``dpa_flip``) — installing over an existing
    tracer is refused rather than silently chained. ``name`` is the run's
    stream name: the header's ``name`` and the JSONL file stem.
    """

    __slots__ = (
        "config",
        "name",
        "next_sample",
        "samples_taken",
        "_net",
        "_spool",
        "_prev_link",
        "_install_link",
        "_start_cycle",
        "_flips_by_node",
    )

    def __init__(self, config: ObsConfig, name: str):
        self.config = config
        self.name = name
        self.next_sample = 0
        self.samples_taken = 0
        self._net = None
        #: the open spool file (``None`` without an obs dir, or once closed)
        self._spool = None
        self._flips_by_node: dict[int, int] = {}

    # -- wiring -----------------------------------------------------------------
    def install(self, sim) -> "MetricsCollector":
        """Attach to ``sim``: trace slot and obs slot; open the spool."""
        net = sim.network
        if net.trace is not None:
            raise ConfigError(
                "network already has a trace installed; the collector "
                "needs the trace slot for DPA flip events"
            )
        if self._net is not None:
            raise ConfigError("collector is already installed on a simulator")
        net.trace = self
        sim.obs = self
        self._net = net
        self._start_cycle = sim.cycle
        period = self.config.sample_period
        self.next_sample = (sim.cycle // period + 1) * period
        self._install_link = net.link_flit_counts()
        out_dir = self.config.dir
        if out_dir is None:
            return self
        self._prev_link = self._install_link
        os.makedirs(out_dir, exist_ok=True)
        # Not ``*.jsonl``: a sweep's streams are the files that end so.
        spool = os.path.join(
            out_dir, f".{sanitize_name(self.name)}.{os.urandom(6).hex()}.spool"
        )
        self._spool = open(spool, "x", encoding="utf-8")
        cfg = net.config
        from repro._version import __version__, git_revision

        self._write(
            {
                "kind": "header",
                "schema": SCHEMA_VERSION,
                "name": self.name,
                "width": cfg.width,
                "height": cfg.height,
                "num_nodes": net.topology.num_nodes,
                "topology": net.topology.kind,
                "sample_period": period,
                "start_cycle": sim.cycle,
                # provenance stamp: optional additive fields, so no schema
                # version bump (validators ignore unknown fields)
                "repro_version": __version__,
                "git_rev": git_revision() or "",
            }
        )
        self._write(
            {
                "kind": "dpa_init",
                "cycle": sim.cycle,
                "native_high": [bool(r.native_high) for r in net.routers],
            }
        )
        return self

    def _write(self, rec: dict) -> None:
        self._spool.write(dumps_record(rec) + "\n")

    def close(self) -> None:
        """Close and remove the spool; idempotent. The JSONL stream stays."""
        spool = self._spool
        if spool is None:
            return
        self._spool = None
        spool.close()
        try:
            os.unlink(spool.name)
        except OSError:
            pass

    # -- trace hook (the only kernel event the collector consumes) ---------------
    def dpa_flip(self, cycle, node, native_high, ovc_n, ovc_f) -> None:
        if self._spool is not None:
            self._write(
                {
                    "kind": "dpa_flip",
                    "cycle": cycle,
                    "node": node,
                    "native_high": bool(native_high),
                    "ovc_n": ovc_n,
                    "ovc_f": ovc_f,
                }
            )
        self._flips_by_node[node] = self._flips_by_node.get(node, 0) + 1

    # -- periodic sampler (called by Simulator.step) ------------------------------
    def take_sample(self, cycle: int, net) -> None:
        """Snapshot per-router and per-link state at a period boundary."""
        if self._spool is not None:
            routers = net.routers
            self._write(
                {
                    "kind": "vc_sample",
                    "cycle": cycle,
                    "occupancy": list(net.occupancy),
                    "ovc_n": [r.ovc_n for r in routers],
                    "ovc_f": [r.ovc_f for r in routers],
                }
            )
            cur = net.link_flit_counts()
            prev = self._prev_link
            self._write(
                {
                    "kind": "link_sample",
                    "cycle": cycle,
                    "flits": [
                        [c - p for c, p in zip(crow, prow)]
                        for crow, prow in zip(cur, prev)
                    ],
                }
            )
            self._prev_link = cur
            # A sample's lines are on disk before the next period starts.
            self._spool.flush()
        self.samples_taken += 1
        self.next_sample = cycle + self.config.sample_period

    # -- finalization ---------------------------------------------------------------
    def finalize(self, end_cycle: int) -> ObsSummary:
        """Derive the latency/summary records, write JSONL, return the digest."""
        net = self._net
        if net is None:
            raise ConfigError("collector was never installed")
        if self.config.dir is not None and self._spool is None:
            raise ConfigError("collector is closed: its spool is gone")
        # No window set yet: nothing was measured.
        window = net.measure_window or (0, 0)
        classes = net.stats.latency_classes(window, net.region_ids)
        latency = {cls: latency_summary(classes[cls]) for cls in LATENCY_CLASSES}
        link_util = self._link_utilization(end_cycle)
        dpa_flips = sum(self._flips_by_node.values())
        # Every classified packet is native or foreign; global is a subset.
        events = dpa_flips + latency["native"]["count"] + latency["foreign"]["count"]
        path = None
        if self._spool is not None:
            tail = [
                {"kind": "latency_class", "cls": cls, **stats}
                for cls, stats in latency.items()
            ]
            tail.append(
                {
                    "kind": "summary",
                    "cycle": end_cycle,
                    "samples": self.samples_taken,
                    "events": events,
                    "dpa_flips": dpa_flips,
                    "link_util": link_util,
                }
            )
            self._spool.flush()
            path = write_stream(tail, self.config.dir, self.name, head=self._spool.name)
        return ObsSummary(
            end_cycle=end_cycle,
            sample_period=self.config.sample_period,
            samples=self.samples_taken,
            events=events,
            dpa_flips=dpa_flips,
            dpa_flips_by_node=dict(sorted(self._flips_by_node.items())),
            latency=latency,
            link_util=link_util,
            jsonl_path=path,
        )

    def _link_utilization(self, end_cycle: int) -> dict:
        """Flits/cycle per physical link since install (mean + hottest)."""
        net = self._net
        elapsed = end_cycle - self._start_cycle
        neighbor = net.topology.neighbor
        cur = net.link_flit_counts()
        base = self._install_link
        best = (-1.0, 0, 0)
        total = 0.0
        links = 0
        for node, (crow, brow) in enumerate(zip(cur, base)):
            for port in range(len(crow)):
                # Port 0 is the ejection link (always present); others
                # only exist where the mesh has a neighbor.
                if port != 0 and neighbor[node][port] < 0:
                    continue
                util = (crow[port] - brow[port]) / elapsed if elapsed > 0 else 0.0
                total += util
                links += 1
                if util > best[0]:
                    best = (util, node, port)
        return {
            "mean": total / links if links else 0.0,
            "max": max(best[0], 0.0),
            "max_node": best[1],
            "max_port": best[2],
        }
