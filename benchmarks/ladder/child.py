"""One workload subprocess: set up, run operations for a time budget, report.

``run.py`` starts this module fresh for every repeat so that set-up time
(interpreter start, these imports, the first network built) and peak
memory are facts about one run. The last line of standard output is one
JSON object; everything else goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback

from benchmarks.ladder import fidelity
from benchmarks.ladder import workloads as w
from benchmarks.ladder.layers import engine_layers, kernel_layers, ratio, tax_layers

WORKLOADS = ("busy-uniform", "corner-trickle", "regional-sweep", "regional-armed")
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"
#: a traced loop's layer spans must cover this share of its wall time; the rest is
#: the loop's own cost (noc.sim.loop_self_s: ~0.3 % on busy cycles, ~10 % on
#: corner-trickle, whose stepped cycles cost only ~13 us each)
SPAN_COVERAGE = 0.85


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    args = parser.parse_args(argv)

    name, seed, smoke = args.workload, args.seed, args.smoke
    OUT_DIR.mkdir(exist_ok=True)
    scratch = str(OUT_DIR)
    kernel = {
        "busy-uniform": w.BUSY_UNIFORM,  # about 1 s: short enough for --smoke as it is
        "corner-trickle": w.CORNER_TRICKLE_SMOKE if smoke else w.CORNER_TRICKLE,
    }.get(name)
    cells = {
        "regional-sweep": w.SMOKE_CELLS if smoke else w.TIMED_SWEEP,
        "regional-armed": w.SMOKE_CELLS[1:] if smoke else w.ARMED,
    }.get(name)

    # "Ready to simulate the first cycle": the first network built, traffic on.
    if kernel is not None:
        w.build_kernel(kernel, seed)
    else:
        w.build_cell(w.tagged_cells(seed, cells)[0][2])
    out = {"setup_s": time.monotonic() - args.spawned_at}

    if args.trace:
        if kernel is not None:
            out.update(_traced_kernel(name, kernel, seed, args.seconds))
        elif name == "regional-sweep":
            out.update(_traced_sweep(seed, smoke, scratch, args.seconds))
        else:
            out.update(_traced_armed(cells, seed, smoke, scratch, args.seconds))
        spans = out.pop("spans")
        (OUT_DIR / f"trace_{name}.json").write_text(json.dumps(spans, indent=1) + "\n")
    else:
        if kernel is not None:
            ops = _repeat(lambda: w.kernel_op(kernel, seed), args.seconds)
        elif name == "regional-sweep":
            ops = _repeat(lambda: w.sweep_op(seed, cells, scratch)[0], args.seconds)
        else:
            ops = _repeat(lambda: w.armed_op(seed, cells, scratch)[0], args.seconds)
        out.update(_summary(ops))
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


def _repeat(op, seconds: float) -> list:
    """Run ``op`` at least once, then for as long as another run fits in ``seconds``."""
    start = time.perf_counter()
    ops = []
    while True:
        t0 = time.perf_counter()
        try:
            ops.append(op())
        except Exception:  # an op boundary: a crash is a failed op, not a crashed run
            traceback.print_exc()
            ops.append(None)
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            return ops


def _summary(ops: list, extra_attempted: int = 0, extra_failed: int = 0) -> dict:
    done = [op for op in ops if op is not None]
    timed = [op for op in done if not op.failed]  # a failed op's time means nothing
    return {
        "attempted": sum(op.attempted for op in done) + len(ops) - len(done)
        + extra_attempted,
        "failed": sum(op.failed for op in done) + len(ops) - len(done) + extra_failed,
        "parts": [op.parts for op in timed],
        "cycles": [op.cycles for op in timed],
        "digests": _distinct(op.digest for op in done),
    }


def _distinct(digests) -> list[str]:
    """The distinct digests, as canonical JSON text (hashable, and what gets hashed)."""
    return sorted({json.dumps(d, sort_keys=True) for d in digests})


def _spans_cover(traced) -> bool:
    return all(
        op.loop.covered_s() >= SPAN_COVERAGE * op.loop.wall_s() for op in traced
    )


def _traced_kernel(name, params, seed, seconds) -> dict:
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:  # interleaved, so both sides see the same machine
        untraced += _repeat(lambda: w.kernel_op(params, seed), 0)
        traced.append(w.kernel_traced_op(params, seed))
        if time.perf_counter() >= deadline:
            break
    out = _summary(untraced, len(traced), sum(op.failed for op in traced))
    layers = kernel_layers([[op] for op in traced])
    # No untraced run finished: they are counted as failed, and the ratio reads 0.
    layers["trace_overhead_ratio"] = ratio(
        statistics.median(op.wall_s for op in traced),
        statistics.median([sum(parts) for parts in out["parts"]] or [0.0]),
    )
    checks = {
        "traced_digest_equals_untraced": out["digests"]
        == _distinct(op.digest for op in traced),
        "spans_cover_traced_wall": _spans_cover(traced),
    }
    if name == "corner-trickle":
        prefix = min(w.NAIVE_PREFIX_CYCLES, params.warmup + params.measure)
        checks["naive_prefix_equals_fast_forward"] = w.prefix_state(
            params, seed, prefix, fast_forward=True
        ) == w.prefix_state(params, seed, prefix, fast_forward=False)
    out.update(layers=layers, checks=checks, spans=traced[-1].loop.span_rows(name))
    return out


def _traced_sweep(seed, smoke, scratch, seconds) -> dict:
    """All 21 paper cells once, cold; the layers beside them; three cells traced.

    The cells run at ``FIDELITY_EFFORT`` and once each whatever that costs
    (about 50 s here): the fidelity figure needs them all. ``seconds`` bounds
    what is repeated for a median after the cold sweep.
    """
    if smoke:
        tagged = w.tagged_cells(seed, w.SMOKE_CELLS)
    else:
        tagged = w.tagged_cells(seed, effort=w.FIDELITY_EFFORT)
    layers, results = engine_layers(
        [cell for _tag, _key, cell in tagged], scratch, 3 if smoke else 50, seconds
    )
    runs = {
        (tag, key): res.run if res.ok and not w.run_failed(res.run) else None
        for (tag, key, _cell), res in zip(tagged, results)
    }
    rows = fidelity.figure_rows(runs)
    share, broken = fidelity.shape_agreement(rows)
    for line in fidelity.report_lines(rows, broken):
        print(line, file=sys.stderr)

    def row(fig, scheme):
        value = rows[(fig, scheme)]
        return value if isinstance(value, float) else 0.0

    layers.update({
        "experiments.fidelity.paper_shape_agreement": share,
        "experiments.fidelity.fig14_rair_red_avg": row("fig14", "RA_RAIR"),
        "experiments.fidelity.fig14_rank_red_avg": row("fig14", "RO_Rank"),
        "experiments.fidelity.fig17_rair_slow_avg": row("fig17", "RA_RAIR"),
        "experiments.fidelity.fig12a_dpa_gap": max(
            row("fig12a", "RAIR_NativeH"), row("fig12a", "RAIR_ForeignH")
        ) - row("fig12a", "RAIR_DPA"),
    })
    picked = [(t, c) for t, k, c in tagged
              if (t, k) in (w.SMOKE_CELLS[:1] if smoke else w.TRACED_SWEEP)]
    traced = [w.cell_traced_op(tag, cell) for tag, cell in picked]
    layers.update(kernel_layers([traced]))
    untraced = [runs[(tag, cell.scheme.key)] for tag, cell in picked]
    pairs = [(op, run) for op, run in zip(traced, untraced) if run]
    layers["trace_overhead_ratio"] = ratio(
        sum(op.loop.wall_s() for op, _run in pairs),
        sum(run.metrics.wall_time_s for _op, run in pairs),
    )
    spans = [row for op in traced for row in op.loop.span_rows(op.tag)]
    return {
        "attempted": len(results) + len(traced),
        "failed": w.cells_failed(results) + sum(op.failed for op in traced),
        "parts": [],
        "cycles": [],
        "digests": _distinct([[list(r.run.determinism_signature()) if r.ok else None
                                for r in results]]),
        "layers": layers,
        "checks": {
            "traced_digest_equals_untraced": [op.digest for op in traced] == [
                w.plain(list(run.determinism_signature())) if run else None
                for run in untraced
            ],
            "spans_cover_traced_wall": _spans_cover(traced),
        },
        "spans": spans,
    }


def _traced_armed(cells, seed, smoke, scratch, seconds) -> dict:
    deadline = time.perf_counter() + seconds
    armed, totals = w.armed_op(seed, cells, scratch)
    traced = [w.cell_traced_op(tag, cell)
              for tag, _key, cell in w.tagged_cells(seed, cells)]
    layers = kernel_layers([traced])
    layers.update(totals)
    # Up to three interleaved rounds of off/obs/sample/strict on six_app/RA_RAIR.
    ratios, unarmed_wall, tax_attempted, tax_failed = tax_layers(
        seed, cells[0], scratch, 1 if smoke else 3, deadline
    )
    layers.update(ratios)
    layers["trace_overhead_ratio"] = traced[0].wall_s / unarmed_wall
    return {
        "attempted": armed.attempted + len(traced) + tax_attempted,
        "failed": armed.failed + sum(op.failed for op in traced) + tax_failed,
        "parts": [],
        "cycles": [],
        "digests": _distinct([armed.digest]),
        "layers": layers,
        "checks": {
            # The traced loop runs unarmed, so one comparison is checks ii and iv.
            "traced_unarmed_digest_equals_armed": [op.digest for op in traced]
            == armed.digest,
            "spans_cover_traced_wall": _spans_cover(traced),
        },
        "spans": [row for op in traced for row in op.loop.span_rows(op.tag)],
    }


if __name__ == "__main__":
    raise SystemExit(main())
