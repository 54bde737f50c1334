"""The whole ladder in one command.

``PYTHONPATH=src python -m benchmarks.ladder`` runs every workload with
tracing off for the end-to-end metrics, then once traced for the
per-layer metrics, prints every metric by name with its unit and sample
count, and exits non-zero if any operation failed or any identity check
did not hold. Two more modes give the bounds in BENCHMARK.json their
evidence: ``--repeat-check`` runs the end-to-end set twice, back to back,
and fails unless the two sets agree within the bounds (host metrics) or
exactly (simulated digests); ``--seed-spread`` runs each workload on ten
seeds, as the driver does, and fails if any metric's interquartile range
exceeds its bound.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

from benchmarks.ladder.run import HERE, load_spec, report, run_workload

#: EXPERIMENTS.md's seed for scenario cells and the old kernel lanes' seed
DEFAULT_SEEDS = {"busy-uniform": 11, "corner-trickle": 11,
                 "regional-sweep": 42, "regional-armed": 42}
SPREAD_SEEDS = 10


def _git_rev() -> str:
    """Short HEAD rev; ``unknown`` in a checkout without git (it still benchmarks)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "unknown"


def machine_stamp() -> dict:
    """Provenance of a run; ``noisy`` when the box was already busy at the start."""
    load1 = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    now = datetime.datetime.now(datetime.timezone.utc)
    return {"git_rev": _git_rev(), "timestamp": now.isoformat(timespec="seconds"),
            "python": platform.python_version(), "nproc": nproc,
            "loadavg_1min": load1, "noisy": load1 > nproc}


def _end_to_end_set(names, seeds_of, seconds, smoke) -> dict:
    """One untraced run per (workload, seed): per-metric values, digests, verdict."""
    out = {}
    for name in names:
        runs = [run_workload(name, seed, seconds, 0, smoke) for seed in seeds_of[name]]
        for result in runs:
            report(name, result, file=sys.stdout)
        out[name] = {
            "values": {metric: [r["metrics"][metric]["value"] for r in runs]
                       for metric in runs[0]["metrics"]},
            "sim_digests": sorted({r["sim_digest"] for r in runs}),
            "correct": all(r["correct"] for r in runs),
        }
    return out


def ladder(names, seeds_of, seconds, smoke) -> tuple[bool, dict]:
    """Every workload untraced, then traced."""
    untraced = _end_to_end_set(names, seeds_of, seconds, smoke)
    traced = {}
    for name in names:
        traced[name] = run_workload(name, seeds_of[name][0], seconds, 1, smoke)
        report(name, traced[name], file=sys.stdout)
    ok = all(u["correct"] for u in untraced.values()) and all(
        t["correct"] for t in traced.values())
    return ok, {
        "seeds": {n: s[0] for n, s in seeds_of.items()},
        "seconds": seconds,
        "end_to_end": {n: {m: statistics.median(v) for m, v in u["values"].items()}
                       for n, u in untraced.items()},
        "sim_digest": {n: u["sim_digests"] for n, u in untraced.items()},
        "per_layer": {n: {m: v["value"] for m, v in t["metrics"].items()}
                      for n, t in traced.items()},
        "checks": {n: t["checks"] for n, t in traced.items()},
    }


def repeat_check(names, seeds_of, seconds, smoke) -> tuple[bool, dict]:
    """Two end-to-end sets, the second in reverse workload order; compare medians."""
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    first = _end_to_end_set(names, seeds_of, seconds, smoke)
    second = _end_to_end_set(names[::-1], seeds_of, seconds, smoke)
    ok = True
    gaps: dict = {}
    for name in names:
        a, b = first[name], second[name]
        same = a["sim_digests"] == b["sim_digests"] and len(a["sim_digests"]) == 1
        ok &= same and a["correct"] and b["correct"]
        print(f"{name}: sim_digest {'bit-equal' if same else 'DIFFERS'} "
              f"{a['sim_digests']} {b['sim_digests']}")
        for metric, m in bounds.items():
            med_a = statistics.median(a["values"][metric])
            med_b = statistics.median(b["values"][metric])
            gap = abs(med_b - med_a) / med_a
            ok &= gap <= m["bound"]
            gaps.setdefault(name, {})[metric] = gap
            print(f"  {metric:<18} {med_a:>12.6g} vs {med_b:>12.6g} {m['unit']:<4}"
                  f" gap {gap:6.2%} (bound {m['bound']:.0%})"
                  f" {'ok' if gap <= m['bound'] else 'OUT OF BOUND'}")
    return ok, {"median_gap_between_sets": gaps}


def seed_spread(names, seeds_of, seconds, smoke) -> tuple[bool, dict]:
    """Interquartile range over the seeds as a share of the median, per metric."""
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    runs = _end_to_end_set(names, seeds_of, seconds, smoke)
    ok = all(r["correct"] for r in runs.values())
    spreads: dict = {}
    for name in names:
        print(f"{name}: seeds {seeds_of[name]}")
        for metric, values in runs[name]["values"].items():
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            # The driver holds every metric but setup_s to its bound here.
            held = metric == "setup_s" or spread <= bounds[metric]
            ok &= held
            spreads.setdefault(name, {})[metric] = spread
            print(f"  {metric:<18} median {statistics.median(values):>12.6g}"
                  f" spread {spread:6.2%} (bound {bounds[metric]:.0%},"
                  f" a third {bounds[metric] / 3:.1%}) {'ok' if held else 'TOO WIDE'}")
    return ok, {"iqr_over_median": spreads, "seeds": seeds_of}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="one seed for all workloads (default: kernels 11, "
                             "cells 42)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="untraced runs per workload (default 1; 3 in "
                             "--repeat-check)")
    parser.add_argument("--smoke", action="store_true",
                        help="short windows, two cells, one subprocess, one operation")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--repeat-check", action="store_true")
    mode.add_argument("--seed-spread", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="also write the numbers to benchmarks/ladder/RESULTS.json")
    args = parser.parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    first = {n: DEFAULT_SEEDS[n] if args.seed is None else args.seed for n in names}
    seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    stamp = machine_stamp()
    print(f"stamp: {json.dumps(stamp)}")

    if args.seed_spread:
        kind = "seed_spread"
        seeds_of = {n: [s + i for i in range(SPREAD_SEEDS)] for n, s in first.items()}
        ok, record = seed_spread(names, seeds_of, seconds, args.smoke)
    elif args.repeat_check:
        kind = "repeat_check"
        seeds_of = {n: [s] * (args.repeats or 3) for n, s in first.items()}
        ok, record = repeat_check(names, seeds_of, seconds, args.smoke)
    else:
        kind = "ladder"
        seeds_of = {n: [s] * (args.repeats or 1) for n, s in first.items()}
        ok, record = ladder(names, seeds_of, seconds, args.smoke)
    record = {"stamp": stamp, "verdict": "pass" if ok else "FAIL", **record}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{kind}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.record:
        path = HERE / "RESULTS.json"
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged[kind] = record
        path.write_text(json.dumps(merged, indent=1) + "\n")
        print(f"recorded in {path}")
    print(f"{kind}: " + ("all checks passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
