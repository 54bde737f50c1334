"""The four ladder workloads: their parameters and their operations.

One definition per workload. The names are fixed — BENCHMARK.json (which
also says why each was chosen), the README and later issues refer to
them. ``results/BENCH_kernel*.json``
and ``results/BENCH_hotpath.json`` are older, shorter lanes of
``busy-uniform`` and ``corner-trickle`` respectively (same fabric, rate
and packet size); they were recorded under one name and must not be
compared with each other or with these.

An *operation* is one measurement run (kernel workloads) or one sweep
(regional workloads, counted per cell). Every operation simulates a
fixed amount of work for a given seed, so its host time is comparable
across repeats, and returns a digest of what the simulator computed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

from benchmarks.ladder.adapter import (
    SCHEMES,
    Cell,
    Effort,
    FixedLength,
    GuardConfig,
    NocConfig,
    ObsConfig,
    SyntheticTrafficSource,
    UniformPattern,
    build_simulation,
    four_app_dpa,
    parsec_quadrants,
    run_cells_detailed,
    run_scenario,
    six_app,
    two_app_msp,
)
from benchmarks.ladder.traced import CountingTrace, TracedLoop

PACKET_FLITS = 8  # fixed-length packets in equally deep VCs (both kernel workloads)
#: timed cells (200 warmup / 800 measure: 0.3-2.5 s a cell here, so a run sees several)
TIMED_EFFORT = Effort.SMOKE
#: the traced pass of ``regional-sweep``, which yields the fidelity figure: at
#: SMOKE the paper's effects drown in seed noise (500 / 2000: 0.8-4.5 s a cell)
FIDELITY_EFFORT = Effort.FAST


@dataclass(frozen=True)
class KernelParams:
    """An 8x8 mesh, RAIR arbitration, XY routing, uniform destinations.

    The run always ends at ``end_cycle``: traffic keeps flowing after the
    measurement window has drained, so the simulated work — and with it
    the host time — does not depend on how long this seed's backlog took
    to drain (at saturation that varies by +-25 % between seeds).
    """

    nodes: tuple[int, ...]
    rate: float  # flits/node/cycle
    warmup: int
    measure: int
    end_cycle: int

    @property
    def drain_limit(self) -> int:
        return self.end_cycle - self.warmup - self.measure


#: Operations of about 1 s: a run reports its fastest, so it needs many short
#: ones. Over 29 seeds the 100-cycle window had drained by cycle 651 at the latest.
BUSY_UNIFORM = KernelParams(tuple(range(64)), 0.4, 100, 100, 900)
CORNER_TRICKLE = KernelParams((0, 63), 0.05, 300, 200_000, 200_400)
CORNER_TRICKLE_SMOKE = KernelParams((0, 63), 0.05, 300, 50_000, 50_400)
#: identity check iii re-runs this many leading cycles without fast-forward
NAIVE_PREFIX_CYCLES = 100_000

#: The 21 paper cells: (figure row tag, scenario builder, builder kwargs,
#: schemes). ``regional-sweep`` times the cells marked in ``TIMED_SWEEP``;
#: its traced pass runs all 21 once, at ``FIDELITY_EFFORT``, for the fidelity
#: figures.
PAPER_CELLS = (
    ("fig09", two_app_msp, {"p_inter": 1.0}, ("RO_RR", "RAIR_VA", "RAIR_VA+SA")),
    ("fig12a", four_app_dpa, {"variant": "a"},
     ("RO_RR", "RAIR_NativeH", "RAIR_ForeignH", "RAIR_DPA")),
    ("fig12b", four_app_dpa, {"variant": "b"},
     ("RO_RR", "RAIR_NativeH", "RAIR_ForeignH", "RAIR_DPA")),
    ("fig14", six_app, {}, ("RO_RR", "RO_Rank", "RA_DBAR", "RA_RAIR")),
    ("fig17clean", parsec_quadrants, {"adversarial": False},
     ("RO_RR", "RO_Rank", "RA_RAIR")),
    ("fig17adv", parsec_quadrants, {"adversarial": True},
     ("RO_RR", "RO_Rank", "RA_RAIR")),
)
#: Seven cells, one sweep of about 5 s: every scenario family, both
#: adaptive routings, STC ranking, DPA, the closed-loop PARSEC sources.
TIMED_SWEEP = (
    ("fig09", "RO_RR"), ("fig09", "RAIR_VA+SA"), ("fig12a", "RAIR_DPA"),
    ("fig14", "RA_RAIR"), ("fig14", "RO_Rank"), ("fig14", "RA_DBAR"),
    ("fig17clean", "RA_RAIR"),
)
#: The cells whose cycle loop the traced pass of ``regional-sweep`` drives.
TRACED_SWEEP = (("fig14", "RA_RAIR"), ("fig14", "RO_Rank"), ("fig14", "RA_DBAR"))
#: The four RAIR cells ``regional-armed`` runs under obs + strict guard.
ARMED = (
    ("fig14", "RA_RAIR"), ("fig12a", "RAIR_DPA"), ("fig09", "RAIR_VA+SA"),
    ("fig17adv", "RA_RAIR"),
)
SMOKE_CELLS = (("fig14", "RA_RAIR"), ("fig09", "RAIR_VA+SA"))


@dataclass
class OpResult:
    """One timed operation: host seconds, simulated cycles, and what it computed.

    ``parts`` are the host seconds of the operation's steps, in order — one
    per cell and then the rest of the call (a kernel run is one step) — and
    sum to its wall time.
    """

    parts: list[float]
    cycles: int
    attempted: int
    failed: int
    digest: list

    @property
    def wall_s(self) -> float:
        return sum(self.parts)


@dataclass
class TracedOp:
    """One operation run through :class:`TracedLoop`."""

    wall_s: float
    build_s: float
    summarise_s: float
    loop: TracedLoop
    trace: CountingTrace
    net: object
    digest: list
    failed: int
    tag: str = ""


def plain(obj):
    """``obj`` as JSON would round-trip it, so digests compare across processes."""
    return json.loads(json.dumps(obj))


def _window_stats(net, window) -> tuple[float, dict, int]:
    stats = net.stats
    return (
        stats.apl(window=window),
        stats.per_app_apl(window=window),
        stats.packet_count(window=window),
    )


# -- kernel workloads --------------------------------------------------------


def build_kernel(params: KernelParams, seed: int, trace=None):
    """(simulator, network) with the workload's single traffic source attached."""
    cfg = NocConfig(vc_depth=PACKET_FLITS, max_packet_flits=PACKET_FLITS)
    sim, net = build_simulation(cfg, scheme="rair", routing="xy", trace=trace)
    sim.add_traffic(
        SyntheticTrafficSource(
            nodes=params.nodes,
            rate=params.rate,
            pattern=UniformPattern(net.topology),
            app_id=0,
            seed=seed,
            lengths=FixedLength(PACKET_FLITS),
        )
    )
    return sim, net


def _kernel_digest(end_cycle: int, net, window_stats) -> tuple[list, int]:
    apl, per_app, measured = window_stats
    digest = plain(
        [end_cycle, net.flits_moved, net.packets_ejected, measured, apl,
         sorted(per_app.items())]
    )
    # Identity check v, plus "the window saw traffic".
    failed = int(measured == 0 or net.window_injected != net.window_ejected)
    return digest, failed


def kernel_op(params: KernelParams, seed: int) -> OpResult:
    """Build, warm up, measure, drain, run on to ``end_cycle``, summarise."""
    t0 = time.perf_counter()
    sim, net = build_kernel(params, seed)
    res = sim.run_measurement(params.warmup, params.measure, params.drain_limit)
    if sim.cycle < params.end_cycle:
        sim.run(params.end_cycle - sim.cycle)
    digest, failed = _kernel_digest(sim.cycle, net, _window_stats(net, res.window))
    wall = time.perf_counter() - t0
    failed |= int(res.abort is not None or not res.drained)
    return OpResult([wall], sim.cycle, 1, failed, digest)


def prefix_state(params: KernelParams, seed: int, cycles: int,
                 fast_forward: bool) -> list:
    """Simulated state after ``cycles`` cycles, fast-forwarding idle gaps or not."""
    sim, net = build_kernel(params, seed)
    sim.fast_forward = fast_forward
    sim.run(cycles)
    return plain([sim.cycle, net.flits_moved, net.packets_ejected,
                  net.packets_in_flight, net.stats.apl()])


def kernel_traced_op(params: KernelParams, seed: int) -> TracedOp:
    """:func:`kernel_op` with the cycle loop driven and timed from outside."""
    trace = CountingTrace()
    t0 = time.perf_counter()
    sim, net = build_kernel(params, seed, trace)
    t1 = time.perf_counter()
    loop = TracedLoop(sim, net)
    window = loop.run_measurement(
        params.warmup, params.measure, params.drain_limit, params.end_cycle
    )
    t2 = time.perf_counter()
    digest, failed = _kernel_digest(loop.cycle, net, _window_stats(net, window))
    t3 = time.perf_counter()
    return TracedOp(t3 - t0, t1 - t0, t3 - t2, loop, trace, net, digest, failed)


# -- regional workloads ------------------------------------------------------


def tagged_cells(seed: int, only=None,
                 effort: Effort = TIMED_EFFORT) -> list[tuple[str, str, Cell]]:
    """(row tag, scheme key, cell) for the paper cells, or for ``only`` in its order."""
    rows = {}
    for tag, builder, kwargs, schemes in PAPER_CELLS:
        wanted = [s for s in schemes if only is None or (tag, s) in only]
        if wanted:
            scenario = builder(**kwargs)
            for key in wanted:
                cell = Cell.for_scenario(SCHEMES[key], scenario, effort, seed)
                rows[(tag, key)] = (tag, key, cell)
    return [rows[pair] for pair in (only if only is not None else rows)]


def run_failed(run) -> bool:
    """Whether a finished cell is a failed operation (identity check v included)."""
    return bool(
        run.abort is not None
        or not run.drained
        or run.undrained_packets
        or run.packets_measured == 0
    )


def cells_failed(results) -> int:
    """Failed operations among ``CellResult``s: FAILED cells and unusable runs."""
    failed = 0
    for res in results:
        if not res.ok:
            print(f"cell failed: {res.cell.describe()}: {res.failure.summary()}",
                  file=sys.stderr, flush=True)
            failed += 1
        elif run_failed(res.run):
            failed += 1
    return failed


def sweep_op(seed: int, only, scratch: str) -> tuple[OpResult, list]:
    """Build the cells and run them cold through ``run_cells_detailed``.

    A fresh cache directory makes every cell simulate, write a cache
    entry and a journal record. Returns the op and the ``CellResult``s.
    """
    with tempfile.TemporaryDirectory(dir=scratch) as cache:
        t0 = time.perf_counter()
        cells = [cell for _tag, _key, cell in tagged_cells(seed, only)]
        results, _report = run_cells_detailed(cells, jobs=1, cache=cache)
        digest = plain(
            [list(r.run.determinism_signature()) if r.ok else r.failure.error_type
             for r in results]
        )
        wall = time.perf_counter() - t0
    ok = [r.run for r in results if r.ok]
    cycles = sum(run.metrics.cycles for run in ok)
    parts = [r.run.metrics.wall_time_s if r.ok else 0.0 for r in results]
    parts.append(wall - sum(parts))  # build, cache and journal writes, reduction
    return OpResult(parts, cycles, len(results), cells_failed(results), digest), results


def armed_op(seed: int, only, scratch: str, obs: bool = True,
             guard: str = "strict") -> tuple[OpResult, dict]:
    """Each cell through ``run_scenario`` with obs streaming and a guard installed.

    Returns the op and the obs totals (events, samples, JSONL bytes).
    """
    runs = []
    parts = []
    failed = 0
    with tempfile.TemporaryDirectory(dir=scratch) as obs_dir:
        t0 = time.perf_counter()
        for _tag, _key, cell in tagged_cells(seed, only):
            cell_t0 = time.perf_counter()
            try:
                run = run_scenario(
                    cell.scheme, cell.spec.build(), cell.effort, cell.seed,
                    obs=ObsConfig(dir=obs_dir) if obs else None,
                    guard=GuardConfig(mode=guard),
                )
            except Exception:  # an op boundary: count it, keep measuring
                traceback.print_exc()
                failed += 1
                run = None
            else:
                failed += run_failed(run)
            runs.append(run)
            parts.append(time.perf_counter() - cell_t0)
        digest = plain(
            [list(r.determinism_signature()) if r else None for r in runs]
        )
        wall = time.perf_counter() - t0
        streams = [r.obs.jsonl_path for r in runs if r and r.obs is not None]
        obs_bytes = sum(os.path.getsize(path) for path in streams if path)
    done = [r for r in runs if r]
    parts.append(wall - sum(parts))  # building the cells, the digest
    op = OpResult(parts, sum(r.metrics.cycles for r in done), len(runs), failed, digest)
    totals = {
        "obs.events": sum(r.metrics.obs_events for r in done),
        "obs.samples": sum(r.metrics.obs_samples for r in done),
        "obs.jsonl_bytes": obs_bytes,
    }
    return op, totals


def build_cell(cell: Cell, trace=None):
    """(simulator, network, scenario) for one cell, traffic attached."""
    scheme = cell.scheme
    scenario = cell.spec.build()
    sim, net = build_simulation(
        scenario.config,
        region_map=scenario.region_map,
        scheme=scheme.policy,
        routing=scheme.routing,
        policy_kwargs=dict(scheme.policy_kwargs),
        trace=trace,
    )
    for source in scenario.traffic_factory(cell.seed):
        sim.add_traffic(source)
    return sim, net, scenario


def cell_traced_op(tag: str, cell: Cell) -> TracedOp:
    """``compute_cell``'s unarmed path with the cycle loop driven from outside."""
    trace = CountingTrace()
    t0 = time.perf_counter()
    sim, net, scenario = build_cell(cell, trace)
    t1 = time.perf_counter()
    loop = TracedLoop(sim, net)
    warmup, measure = cell.effort.warmup, cell.effort.measure
    # Simulator.run_measurement's default drain budget.
    window = loop.run_measurement(warmup, measure, 10 * (warmup + measure) + 20_000)
    t2 = time.perf_counter()
    apl, per_app, measured = _window_stats(net, window)
    t3 = time.perf_counter()
    undrained = max(0, net.window_injected - net.window_ejected)
    # Field for field ScenarioRun.determinism_signature().
    digest = plain(
        [cell.scheme.key, scenario.name, window, undrained == 0, undrained, apl,
         sorted(per_app.items()), loop.cycle, measured,
         "drain_limit" if undrained else None]
    )
    failed = int(undrained > 0 or measured == 0)
    return TracedOp(t3 - t0, t1 - t0, t3 - t2, loop, trace, net, digest, failed,
                    tag=f"{tag}/{cell.scheme.key}")
