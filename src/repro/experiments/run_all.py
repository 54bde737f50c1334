"""Run every reproduced table/figure and write the results directory.

CLI::

    python -m repro.experiments.run_all [--effort medium] [--out results/]
                                        [--jobs N] [--cache DIR] [--obs DIR]
                                        [--seeds N]

Runs E-T1, the in-text numbers, E-F9/F10/F12/F14/F15/F17 and the three
ablations in sequence, printing each table (with its run-dependent
``metrics:`` line) and writing it without that line to
``<out>/<experiment>.txt``, plus a ``summary.txt`` with each experiment's
row count and wall time and the run's cache hit/miss and failure totals.
This is the one-command regeneration path behind EXPERIMENTS.md;
``--effort fast --out results`` leaves a clean tree clean.

``--seeds N`` replicates every figure and makes this the one evaluator of
the paper's claims (:mod:`repro.experiments.fidelity`): verdicts print
under each table and land in ``<out>/verdicts.json`` by claim id and
window. Other windows' records already there are kept and no clock goes
in, so a warm re-run rewrites the same bytes.

``--jobs N`` fans each experiment's independent (scheme, scenario, seed)
cells over N worker processes; ``--cache DIR`` reuses cells already
computed by *any* previous figure, ablation, or sweep (several figures
share their RO_RR baselines, so a cached full run skips a sizable
fraction of the work). Results are bit-identical to the serial,
uncached path either way.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import time

from repro._version import git_revision
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
    intext,
    table1,
)
from repro.experiments.fidelity import CLAIMS, by_figure, evaluate, shown
from repro.experiments.report import (
    EXIT_CELL_FAILURE,
    add_common_args,
    parse_common,
    parse_effort,
)
from repro.util.jsonl import write_text_atomic

__all__ = ["main", "EXPERIMENTS"]

#: name -> module with a run(effort=..., seed=...) entry point
EXPERIMENTS = {
    "table1": table1,
    "intext": intext,
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

#: experiment name -> the paper claims its table decides
CLAIMS_OF = by_figure(CLAIMS, EXPERIMENTS)


def main(argv=None) -> int:
    parser = add_common_args(argparse.ArgumentParser(description=__doc__))
    parser.add_argument("--out", default="results")
    parser.add_argument(
        "--only", nargs="*", default=None, choices=sorted(EXPERIMENTS),
        help="subset of experiments to run",
    )
    args, common = parse_common(parser, argv)
    effort = parse_effort(args.effort)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    names = args.only or list(EXPERIMENTS)

    verdicts_path = out / "verdicts.json"
    verdicts = {}
    if args.seeds and verdicts_path.exists():
        verdicts = json.loads(verdicts_path.read_text(encoding="utf-8"))
    window = f"{effort.warmup}/{effort.measure}"
    run_stamp = {"seeds": common["seeds"], "rev": git_revision()}

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
        print(f"\n{result.format_table()}")
        claims = CLAIMS_OF.get(name, ()) if args.seeds else ()
        for claim in claims:
            record = evaluate(claim, result.seed_rows)
            print(f"claim {claim.id}: {shown(record)}  [paper: {claim.paper}]")
            verdicts.setdefault(claim.id, {})[window] = {**record, **run_stamp}
        print(f"[{name}: {elapsed:.1f}s]")
        # Without the counters: the file is a function of the arguments alone.
        table = dataclasses.replace(result, metrics={}).format_table()
        write_text_atomic(out / f"{name}.txt", table + "\n")
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
    if args.seeds:
        text = json.dumps(verdicts, indent=1, sort_keys=True, ensure_ascii=False)
        write_text_atomic(verdicts_path, text + "\n")
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
