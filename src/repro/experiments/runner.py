"""Common experiment machinery: schemes, efforts, scenario runs, results.

A **scheme** pairs an arbitration policy with a routing algorithm under the
paper's name for the combination (RO_RR, RO_Rank, RA_DBAR, RA_RAIR, and
the ablation variants of Figs. 9/10/12). A **scenario** (from
:mod:`repro.experiments.scenarios`) supplies the region map and a traffic
factory. :func:`run_scenario` wires one of each together, runs the
warmup/measure/drain protocol, and returns per-application APLs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro import build_simulation
from repro.core.dpa import DpaConfig
from repro.core.msp import Stage
from repro.noc.stats import RunMetrics

__all__ = [
    "Effort",
    "Scheme",
    "SCHEMES",
    "ScenarioRun",
    "run_scenario",
    "FigureResult",
]


class Effort(enum.Enum):
    """Warmup/measure window sizes.

    ``FULL`` is the paper's protocol (10K warmup + 100K measure); ``FAST``
    and ``MEDIUM`` scale it down for CI/benchmark runs. Not every
    comparison keeps its ordering across efforts: EXPERIMENTS.md's verdict
    table has one column per window and shows which orderings flip.
    """

    SMOKE = (200, 800)
    FAST = (500, 2000)
    MEDIUM = (1000, 5000)
    FULL = (10_000, 100_000)

    @property
    def warmup(self) -> int:
        return self.value[0]

    @property
    def measure(self) -> int:
        return self.value[1]


@dataclass(frozen=True)
class Scheme:
    """A named (arbitration policy, routing algorithm) combination."""

    key: str
    policy: str
    routing: str
    policy_kwargs: dict = field(default_factory=dict, compare=False)

    def describe(self) -> str:
        return f"{self.key} (policy={self.policy}, routing={self.routing})"


#: The paper's evaluated schemes, by its own names.
SCHEMES: dict[str, Scheme] = {
    # baselines
    "RO_RR": Scheme("RO_RR", "rr", "local"),
    "RO_Rank": Scheme("RO_Rank", "stc", "local"),
    "RA_DBAR": Scheme("RA_DBAR", "rr", "dbar"),
    # full RAIR
    "RA_RAIR": Scheme("RA_RAIR", "rair", "local"),
    # Fig. 9 MSP ablation
    "RAIR_VA": Scheme("RAIR_VA", "rair", "local", {"stages": Stage.VA}),
    "RAIR_VA+SA": Scheme("RAIR_VA+SA", "rair", "local"),
    # Fig. 10 routing study
    "RO_RR_Local": Scheme("RO_RR_Local", "rr", "local"),
    "RAIR_Local": Scheme("RAIR_Local", "rair", "local"),
    "RO_RR_DBAR": Scheme("RO_RR_DBAR", "rr", "dbar"),
    "RAIR_DBAR": Scheme("RAIR_DBAR", "rair", "dbar"),
    # Fig. 12 DPA ablation
    "RAIR_NativeH": Scheme(
        "RAIR_NativeH", "rair", "local", {"dpa": DpaConfig(mode="native")}
    ),
    "RAIR_ForeignH": Scheme(
        "RAIR_ForeignH", "rair", "local", {"dpa": DpaConfig(mode="foreign")}
    ),
    "RAIR_DPA": Scheme("RAIR_DPA", "rair", "local"),
}


@dataclass
class ScenarioRun:
    """Result of one (scheme, scenario) simulation."""

    scheme: str
    scenario: str
    window: tuple[int, int]
    drained: bool
    undrained_packets: int
    apl: float
    per_app_apl: dict[int, float]
    end_cycle: int
    packets_measured: int
    #: None (clean) | "watchdog" | "drain_limit" | "deadlock" |
    #: "livelock" | "starvation" (see MeasurementResult)
    abort: str | None = None
    #: wall-clock counters; excluded from comparisons — two runs of the
    #: same cell are *simulation*-identical, never timing-identical
    metrics: RunMetrics | None = field(default=None, compare=False)
    #: observability digest (:class:`repro.obs.ObsSummary`) when a
    #: collector was requested; excluded from comparisons because its
    #: ``jsonl_path`` reflects this invocation, and from
    #: :meth:`determinism_signature` because cache hits may legitimately
    #: restore a run recorded without observability
    obs: object | None = field(default=None, compare=False)

    def reduction_vs(self, baseline: "ScenarioRun", app: int | None = None) -> float:
        """Fractional APL reduction relative to ``baseline`` (positive = better)."""
        mine = self.apl if app is None else self.per_app_apl[app]
        theirs = baseline.apl if app is None else baseline.per_app_apl[app]
        return 1.0 - mine / theirs

    def determinism_signature(self) -> tuple:
        """Every simulation-determined field, for bit-identity assertions.

        Excludes wall-clock metrics; equal signatures mean the simulator
        produced exactly the same run, whether serially, in a worker
        process, or restored from the result cache.
        """
        return (
            self.scheme,
            self.scenario,
            self.window,
            self.drained,
            self.undrained_packets,
            self.apl,
            tuple(sorted(self.per_app_apl.items())),
            self.end_cycle,
            self.packets_measured,
            self.abort,
        )


def run_scenario(
    scheme: Scheme,
    scenario,
    effort: Effort = Effort.MEDIUM,
    seed: int = 42,
    obs=None,
    guard=None,
) -> ScenarioRun:
    """Simulate ``scenario`` under ``scheme`` and summarize.

    ``scenario`` is a :class:`~repro.experiments.scenarios.Scenario`,
    built with the network config it runs on; ``scheme`` carries the
    policy kwargs. This always simulates, in this process: the cell
    engine calls it, never the reverse, so a cached, journaled or
    multi-process run is reached one way — as a ``Cell``.
    ``obs`` is an optional :class:`repro.obs.ObsConfig` — execution
    policy, not part of the cell identity — that installs a metrics collector on the run; the resulting
    :class:`repro.obs.ObsSummary` lands on :attr:`ScenarioRun.obs`.
    ``guard`` is an optional :class:`repro.noc.guard.GuardConfig` —
    execution policy as well, since a guarded run is bit-identical to an
    unguarded one — that installs a :class:`~repro.noc.guard.RuntimeGuard`
    on the run. Both name their files after the run's cell
    (:func:`~repro.experiments.parallel.cell_obs_name`), so two runs that
    differ in anything a cache key sees never share a stream.
    """
    sim, net = build_simulation(
        scenario.config,
        region_map=scenario.region_map,
        scheme=scheme.policy,
        routing=scheme.routing,
        policy_kwargs=scheme.policy_kwargs,
    )
    try:
        if obs is not None or guard is not None:
            # Here, not at the top: parallel.py imports this module.
            from repro.experiments.parallel import Cell, cell_obs_name

            name = cell_obs_name(Cell(scheme, scenario.spec, effort, seed))
        if obs is not None:
            from repro.obs.collector import MetricsCollector

            MetricsCollector(obs, name).install(sim)
        if guard is not None and guard.mode != "off":
            from repro.noc.guard import RuntimeGuard

            # After the collector: the guard tees its ring *behind* an
            # existing tracer, so the obs stream stays byte-identical.
            RuntimeGuard(guard, name).install(sim)
        for source in scenario.traffic_factory(seed):
            sim.add_traffic(source)
        res = sim.run_measurement(warmup=effort.warmup, measure=effort.measure)
        apl, per_app_apl, packets_measured = net.stats.summary(window=res.window)
        return ScenarioRun(
            scheme=scheme.key,
            scenario=scenario.name,
            window=res.window,
            drained=res.drained,
            undrained_packets=res.undrained_packets,
            apl=apl,
            per_app_apl=per_app_apl,
            end_cycle=res.end_cycle,
            packets_measured=packets_measured,
            abort=res.abort,
            metrics=res.metrics,
            obs=res.obs,
        )
    finally:
        # A failed run releases too: nothing outlives this call but the summary.
        sim.close()


@dataclass
class FigureResult:
    """A reproduced table/figure: labelled rows ready for printing."""

    figure: str
    title: str
    columns: list[str]
    rows: list[dict]
    notes: list[str] = field(default_factory=list)
    #: execution counters (wall time, cells, cache hits/misses, sim
    #: cycles/sec) attached by the cell engine
    metrics: dict = field(default_factory=dict)
    #: the one-seed tables behind ``rows``, one list of rows per seed run
    seed_rows: list[list[dict]] = field(default_factory=list)

    def format_table(self) -> str:
        """Fixed-width text table (what every figure CLI and ``run_all`` print)."""
        widths = {c: len(c) for c in self.columns}
        rendered: list[list[str]] = []
        for row in self.rows:
            cells = []
            for c in self.columns:
                v = row.get(c, "")
                text = f"{v:.3f}" if isinstance(v, float) else str(v)
                widths[c] = max(widths[c], len(text))
                cells.append(text)
            rendered.append(cells)
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        sep = "-" * len(header)
        lines = [f"{self.figure}: {self.title}", sep, header, sep]
        for cells in rendered:
            lines.append(
                "  ".join(cell.ljust(widths[c]) for cell, c in zip(cells, self.columns))
            )
        lines.append(sep)
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.metrics:
            pairs = ", ".join(
                f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
                for k, v in sorted(self.metrics.items())
            )
            lines.append(f"metrics: {pairs}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        """JSON-serializable form (rows, notes, and execution metrics)."""
        return {
            "figure": self.figure,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
            "metrics": dict(self.metrics),
        }
