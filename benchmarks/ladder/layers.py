"""Per-layer numbers: the traced loop's split, and the layers above the kernel.

Host seconds are self time summed over the run and reported as the median
over repeats; counts are simulated and exact. Metric names are
``<module>.<metric>`` after the ``repro`` module that owns the layer; the
full list, with units, is ``per_layer`` in BENCHMARK.json, and README.md
says which end-to-end metric each should move on which workload.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from benchmarks.ladder.adapter import (
    DAEMON_MODULE,
    JobStore,
    ResultCache,
    ServiceClient,
    ServiceError,
    SweepJournal,
    cache_key,
    cell_result_to_wire,
    decode_cells,
    encode_cells,
    run_cells_detailed,
)
from benchmarks.ladder.workloads import TracedOp, armed_op

median = statistics.median


def ratio(num: float, den: float) -> float:
    """``num / den``; 0 when a failed operation left nothing to divide by."""
    return num / den if den else 0.0


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def until(deadline: float, most: int, fn) -> list:
    """Results of ``fn()``: at least one, at most ``most``, none begun late."""
    out = [fn()]
    while len(out) < most and time.perf_counter() < deadline:
        out.append(fn())
    return out


def kernel_layers(repeats: list[list[TracedOp]]) -> dict[str, float]:
    """The traced loop's numbers: each repeat summed over its ops, then the median."""
    per_repeat = [_one_repeat(ops) for ops in repeats]
    return {k: median(r[k] for r in per_repeat) for k in per_repeat[0]}


def _one_repeat(ops: list[TracedOp]) -> dict[str, float]:
    def busy(layer):
        return sum(op.loop.busy[layer] for op in ops)

    def count(name):
        return sum(op.loop.counts[name] for op in ops)

    def traced(attr):
        return sum(getattr(op.trace, attr) for op in ops)

    loop_wall = sum(op.loop.wall_s() for op in ops)
    cycles = sum(op.loop.cycle for op in ops)
    hops = sum(op.net.flits_moved for op in ops)
    pool_hits = sum(op.net.packet_pool.hits for op in ops)
    pool_allocs = sum(op.net.packet_pool.allocs for op in ops)
    return {
        "noc.router.va_s": busy("va"),
        "noc.router.sa_s": busy("sa"),
        "noc.router.va_calls": count("va_calls"),
        "noc.router.va_grants": traced("va_grants"),
        "noc.router.va_grant_ratio": ratio(traced("va_grants"), count("va_calls")),
        "noc.router.sa_calls": count("sa_calls"),
        "noc.router.sa_wins": traced("sa_wins"),
        "noc.router.active_router_cycles": count("active_router_cycles"),
        "noc.router.wakes": traced("wakes"),
        "noc.network.deliver_s": busy("deliver"),
        "noc.network.inject_s": busy("inject"),
        "noc.network.flit_hops": hops,
        "noc.network.credit_returns": traced("credit_returns"),
        "noc.network.flit_hops_per_s": ratio(hops, loop_wall),
        "traffic.tick_s": busy("tick"),
        "traffic.lookahead_s": busy("lookahead"),
        "traffic.packets_generated": sum(
            op.net.packets_ejected + op.net.packets_in_flight for op in ops
        ),
        "noc.sim.ff_jumps": count("ff_jumps"),
        "noc.sim.ff_cycles_skipped": count("ff_cycles_skipped"),
        "noc.sim.ff_skip_share": ratio(count("ff_cycles_skipped"), cycles),
        "noc.sim.loop_self_s": loop_wall - sum(op.loop.covered_s() for op in ops),
        "noc.sim.warmup_s": sum(op.loop.phase_seconds("warmup") for op in ops),
        "noc.sim.measure_s": sum(op.loop.phase_seconds("measure") for op in ops),
        "noc.sim.drain_s": sum(op.loop.phase_seconds("drain") for op in ops),
        "noc.sim.drain_cycles": sum(op.loop.phase_cycles("drain") for op in ops),
        "noc.sim.pool_hit_ratio": ratio(pool_hits, pool_hits + pool_allocs),
        "core.dpa.router_hook_s": busy("router_hook"),
        "core.dpa.flips": traced("flips"),
        "arbitration.stc.network_hook_s": busy("network_hook"),
        "noc.stats.summarise_s": sum(op.summarise_s for op in ops),
        "experiments.scenarios.build_s": sum(op.build_s for op in ops),
    }


def engine_layers(cells, scratch: str, reruns: int,
                  seconds: float) -> tuple[dict[str, float], list]:
    """Cold sweep, then the engine, cache and service costs beside it.

    Returns the metrics and the cold sweep's ``CellResult``s. The warm
    numbers re-run the same cells against the cache the cold sweep filled.
    The cold sweep runs once whatever it costs; everything repeated after
    it runs once at least and stops repeating ``seconds`` after it ended.
    """
    n = len(cells)
    m: dict[str, float] = {}
    with tempfile.TemporaryDirectory(dir=scratch) as cache:
        t0 = time.perf_counter()
        results, _report = run_cells_detailed(cells, jobs=1, cache=cache)
        cold = time.perf_counter() - t0
        deadline = time.perf_counter() + seconds
        runs = [r.run for r in results if r.ok]
        simulate = sum(run.metrics.wall_time_s for run in runs)
        m["experiments.parallel.overhead_cell_ms"] = (cold - simulate) / n * 1e3
        # Journal-resume path: every cell restored up front, nothing dispatched.
        warm = until(deadline, reruns, lambda: _timed(
            run_cells_detailed, cells, jobs=1, cache=cache))
        m["experiments.parallel.warm_cell_ms"] = median(warm) / n * 1e3
        # With the journal off the cells reach the executor and hit the cache
        # there, so jobs=2 minus jobs=1 is the pool: spawn, import, pickling.
        pool_extra = until(deadline, min(reruns, 3), lambda: _timed(
            run_cells_detailed, cells, jobs=2, cache=cache, use_journal=False
        ) - _timed(run_cells_detailed, cells, jobs=1, cache=cache, use_journal=False))
        m["experiments.parallel.pool_extra_s"] = median(pool_extra)
        m.update(_service_layers(cells, cache, scratch, min(reruns, 3), deadline))
    m.update(_cache_layers(cells, results, scratch))
    m["service.protocol.codec_cell_us"] = median(until(
        deadline, reruns, lambda: _timed(lambda: decode_cells(encode_cells(cells)))
    )) / n * 1e6
    return m, results


def _cache_layers(cells, results, scratch: str) -> dict[str, float]:
    keys = [cache_key(cell) for cell in cells]
    stored = [(key, res) for key, res in zip(keys, results) if res.ok]
    with tempfile.TemporaryDirectory(dir=scratch) as root:
        store = ResultCache(root)
        journal = SweepJournal(root, SweepJournal.key_for(keys))
        jobs = JobStore(os.path.join(root, "jobs"))
        records = [cell_result_to_wire(res, i) for i, (_key, res) in enumerate(stored)]
        return {
            "experiments.cache.key_us": median(
                _timed(cache_key, cell) for cell in cells) * 1e6,
            "experiments.cache.put_ms": median(
                _timed(store.put, key, res.run) for key, res in stored) * 1e3,
            "experiments.cache.get_ms": median(
                _timed(store.get, key) for key, _res in stored) * 1e3,
            "experiments.cache.journal_record_ms": median(
                _timed(journal.record, key) for key in keys) * 1e3,
            "service.jobstore.append_result_ms": median(
                _timed(jobs.append_result, "j1", rec) for rec in records) * 1e3,
        }


def _service_layers(cells, cache: str, scratch: str, reruns: int,
                    deadline: float) -> dict[str, float]:
    """Start the daemon, run the warm sweep through it, stop it."""
    with tempfile.TemporaryDirectory(dir=scratch) as store:
        t0 = time.perf_counter()
        daemon = subprocess.Popen(
            [sys.executable, "-m", DAEMON_MODULE, "--store", store, "--port", "0"],
            stdout=subprocess.DEVNULL,
        )
        try:
            _wait_healthy(daemon, store, timeout_s=30.0)
            start_s = time.perf_counter() - t0
            warm = until(deadline, reruns, lambda: _timed(
                run_cells_detailed, cells, jobs=1, cache=cache, service=store))
        finally:
            daemon.send_signal(signal.SIGINT)  # the daemon's clean-exit path
            try:
                daemon.wait(timeout=10)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
    return {
        "service.daemon.start_s": start_s,
        "service.warm_cell_ms": median(warm) / len(cells) * 1e3,
    }


def _wait_healthy(daemon: subprocess.Popen, store: str, timeout_s: float) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if daemon.poll() is not None:
            raise RuntimeError(f"sweep daemon exited with code {daemon.returncode}")
        if JobStore(store).read_endpoint() is not None:
            try:
                ServiceClient(store).health()
                return
            except ServiceError:
                pass  # endpoint file written, socket not accepting yet
        time.sleep(0.01)
    raise RuntimeError(f"sweep daemon not healthy within {timeout_s:.0f} s")


def tax_layers(seed: int, cell, scratch: str, rounds: int,
               deadline: float) -> tuple[dict, float, int, int]:
    """Armed / unarmed wall on one cell, interleaved, median over the rounds.

    ``rounds`` at most, one at least, none begun after ``deadline``. Returns
    the ratios, the unarmed median wall, and the attempted and failed ops.
    """
    arms = {
        "off": (False, "off"),
        "obs.tax_ratio": (True, "off"),
        "noc.guard.sample_tax_ratio": (False, "sample"),
        "noc.guard.strict_tax_ratio": (False, "strict"),
    }
    walls: dict[str, list[float]] = {name: [] for name in arms}
    ops = []

    def one_round() -> None:
        for name, (obs, guard) in arms.items():
            op, _totals = armed_op(seed, (cell,), scratch, obs=obs, guard=guard)
            walls[name].append(op.wall_s)
            ops.append(op)

    until(deadline, rounds, one_round)
    off = median(walls.pop("off"))
    ratios = {name: median(w) / off for name, w in walls.items()}
    return ratios, off, len(ops), sum(op.failed for op in ops)
