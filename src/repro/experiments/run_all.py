"""Run every reproduced table/figure and write the results directory.

CLI::

    python -m repro.experiments.run_all [--effort medium] [--out results/]
                                        [--jobs N] [--cache DIR] [--obs DIR]

Runs E-T1, E-F9/F10/F12/F14/F15/F17 and the three ablations in sequence,
printing each table and writing ``<out>/<experiment>.txt``, plus a
``summary.txt`` with each experiment's row count and wall time and the
run's cache hit/miss and failure totals. This is the one-command
regeneration path behind EXPERIMENTS.md.

``--jobs N`` fans each experiment's independent (scheme, scenario, seed)
cells over N worker processes; ``--cache DIR`` reuses cells already
computed by *any* previous figure, ablation, or sweep (several figures
share their RO_RR baselines, so a cached full run skips a sizable
fraction of the work). Results are bit-identical to the serial,
uncached path either way.
"""

from __future__ import annotations

import argparse
import pathlib
import time

from repro.experiments import (
    ablation_hysteresis,
    ablation_routing,
    ablation_vcsplit,
    fig09_msp,
    fig10_routing,
    fig12_dpa,
    fig14_sixapp,
    fig15_patterns,
    fig17_parsec,
    table1,
)
from repro.experiments.report import (
    EXIT_CELL_FAILURE,
    add_common_args,
    common_from_args,
    parse_effort,
    write_text_atomic,
)

__all__ = ["main", "EXPERIMENTS"]

#: name -> module with a run(effort=..., seed=...) entry point
EXPERIMENTS = {
    "table1": table1,
    "fig09_msp": fig09_msp,
    "fig10_routing": fig10_routing,
    "fig12_dpa": fig12_dpa,
    "fig14_sixapp": fig14_sixapp,
    "fig15_patterns": fig15_patterns,
    "fig17_parsec": fig17_parsec,
    "ablation_hysteresis": ablation_hysteresis,
    "ablation_vcsplit": ablation_vcsplit,
    "ablation_routing": ablation_routing,
}


def main(argv=None) -> int:
    parser = add_common_args(argparse.ArgumentParser(description=__doc__))
    parser.add_argument("--out", default="results")
    parser.add_argument(
        "--only", nargs="*", default=None,
        help=f"subset of experiments to run; known: {sorted(EXPERIMENTS)}",
    )
    args = parser.parse_args(argv)
    effort = parse_effort(args.effort)
    common = common_from_args(args)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    names = args.only or list(EXPERIMENTS)
    unknown = set(names) - set(EXPERIMENTS)
    if unknown:
        raise SystemExit(f"unknown experiments: {sorted(unknown)}")

    summary = []
    hits = misses = failures = errors = 0
    for name in names:
        module = EXPERIMENTS[name]
        start = time.perf_counter()
        try:
            if name == "table1":
                result = module.run()
            else:
                result = module.run(effort=effort, seed=args.seed, **common)
        except Exception as exc:
            # A cell failure never raises (it renders as a FAILED row);
            # reaching here means the experiment module itself broke.
            # Contain it so the remaining experiments still run.
            elapsed = time.perf_counter() - start
            errors += 1
            text = f"{name}: ERROR {type(exc).__name__}: {exc}"
            print(f"\n{text}\n[{name}: {elapsed:.1f}s]")
            write_text_atomic(out / f"{name}.txt", text + "\n")
            summary.append(f"{name}: ERROR {type(exc).__name__}, {elapsed:.1f}s")
            continue
        elapsed = time.perf_counter() - start
        hits += result.metrics.get("cache_hits", 0)
        misses += result.metrics.get("cache_misses", 0)
        exp_failures = result.metrics.get("failures", 0)
        failures += exp_failures
        text = result.format_table()
        print(f"\n{text}\n[{name}: {elapsed:.1f}s]")
        write_text_atomic(out / f"{name}.txt", text + "\n")
        line = f"{name}: {len(result.rows)} rows, {elapsed:.1f}s"
        if exp_failures:
            line += f", {exp_failures} FAILED cell(s)"
        summary.append(line)

    header = f"effort={effort.name} seed={args.seed} jobs={args.jobs}"
    if args.cache is not None:
        header += f" cache_hits={hits} cache_misses={misses}"
    if failures or errors:
        header += f" failures={failures} errors={errors}"
    write_text_atomic(out / "summary.txt", header + "\n" + "\n".join(summary) + "\n")
    print(f"\nwrote {len(names)} experiment reports to {out}/")
    if failures or errors:
        print(
            f"WARNING: {failures} cell failure(s) and {errors} experiment "
            "error(s); see the FAILED/ERROR entries above."
        )
        return EXIT_CELL_FAILURE
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
