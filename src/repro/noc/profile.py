"""cProfile entry point for the simulation kernel.

Usage::

    python -m repro.noc.profile                       # default workload
    python -m repro.noc.profile --scheme RA_RAIR --effort MEDIUM
    python -m repro.noc.profile --sort tottime --top 30 --out profile.txt
    python -m repro.noc.profile --naive               # fast-forward off

Profiles one scheme × scenario measurement (the same
``run_scenario`` pipeline the experiment suite uses) under ``cProfile``
and prints two views:

* a **per-module aggregation** — total and cumulative time summed over
  each source module, the quickest way to see which layer (router,
  network, traffic, policy) owns the wall clock, and
* the standard per-function ``pstats`` listing, restricted to the top N
  entries by the chosen sort key.

``--out`` additionally writes the full text report to a file (the file
receives exactly what is printed).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys

__all__ = ["main"]


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.noc.profile",
        description="Profile the NoC simulation kernel with cProfile.",
    )
    parser.add_argument(
        "--scheme",
        default="RA_RAIR",
        help="scheme name from repro.experiments.runner.SCHEMES (default RA_RAIR)",
    )
    parser.add_argument(
        "--p-inter",
        type=float,
        default=0.4,
        help="inter-region fraction for the two-app MSP scenario (default 0.4)",
    )
    parser.add_argument(
        "--effort",
        default="FAST",
        help="warmup/measure window size: smoke, fast (default), medium, full",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--sort",
        default="cumulative",
        # Everything Stats.sort_stats accepts: SortKey's members lack the
        # aliases (tottime, cumtime, ncalls) every pstats user types.
        choices=sorted(pstats.Stats.sort_arg_dict_default),
        help="pstats sort key for the per-function listing (default cumulative)",
    )
    parser.add_argument(
        "--top", type=int, default=20, help="entries in each listing (default 20)"
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also write the text report to this file",
    )
    parser.add_argument(
        "--naive",
        action="store_true",
        help="disable idle-cycle fast-forward (profile the naive tick loop)",
    )
    return parser.parse_args(argv)


def _module_of(func_key) -> str:
    filename = func_key[0]
    if filename == "~":
        return "<builtin>"
    return filename


def _module_table(stats: pstats.Stats, top: int) -> str:
    """Aggregate per-function rows into per-module totals."""
    per_module: dict[str, list[float]] = {}
    for func, (cc, nc, tt, ct, _callers) in stats.stats.items():
        row = per_module.setdefault(_module_of(func), [0, 0.0, 0.0])
        row[0] += nc
        row[1] += tt
        # Cumulative time double-counts nested calls within one module;
        # taking the max over the module's functions instead gives the
        # time spent while *any* frame of the module was on the stack's
        # deepest entry point — the usual "which layer owns the time" view.
        row[2] = max(row[2], ct)
    ordered = sorted(per_module.items(), key=lambda kv: kv[1][1], reverse=True)
    lines = [
        "per-module totals (sorted by internal time):",
        f"  {'tottime':>10} {'cumtime':>10} {'calls':>12}  module",
    ]
    for module, (calls, tottime, cumtime) in ordered[:top]:
        lines.append(f"  {tottime:10.4f} {cumtime:10.4f} {calls:12d}  {module}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])

    # Imported here so ``--help`` stays instant and the profile run does
    # not attribute import time to the kernel.
    from repro.experiments.report import parse_effort
    from repro.experiments.runner import SCHEMES, run_scenario
    from repro.experiments.scenarios import two_app_msp

    try:
        scheme = SCHEMES[args.scheme]
    except KeyError:
        print(
            f"unknown scheme {args.scheme!r}; known: {sorted(SCHEMES)}",
            file=sys.stderr,
        )
        return 2
    effort = parse_effort(args.effort)
    scenario = two_app_msp(args.p_inter)

    if args.naive:
        import os

        os.environ["REPRO_DISABLE_FAST_FORWARD"] = "1"

    profiler = cProfile.Profile()
    profiler.enable()
    run = run_scenario(scheme, scenario, effort, seed=args.seed)
    profiler.disable()

    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    header = (
        f"profiled {scheme.key} on {run.scenario} at effort {effort.name} "
        f"(seed {args.seed}, fast-forward {'off' if args.naive else 'on'}): "
        f"{run.end_cycle} cycles, {run.packets_measured} packets measured"
    )
    print(header, file=buf)
    print(file=buf)
    print(_module_table(stats, args.top), file=buf)
    print(file=buf)
    stats.sort_stats(args.sort).print_stats(args.top)
    report = buf.getvalue()

    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
