"""Seed-replicated scheme comparison with confidence intervals.

Single-seed comparisons near an operating knee can flip orderings run to
run; the paper's 100K-cycle windows average that noise away, our scaled
windows do not. Replication itself is the seed axis of the one cell plan
(:func:`repro.experiments.cellplan.run_figure`, ``seeds=[...]``, reducing
each column through :class:`~repro.experiments.cellplan.SweepResult`,
re-exported here); this module holds the tool built on it:

* :func:`compare_schemes` — a cell plan of several schemes against one
  baseline on one scenario, reduced over seeds,
* the ``python -m repro.experiments.sweep`` CLI over registry scenarios.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.cellplan import (
    SweepResult,
    reduction_columns,
    run_figure,
    run_from_args,
)
from repro.experiments.parallel import Cell
from repro.experiments.report import config_for_topology, effort_argparser
from repro.experiments.runner import SCHEMES, Effort, FigureResult, Scheme
from repro.experiments.scenarios import SCENARIO_BUILDERS

__all__ = ["SweepResult", "compare_schemes", "main"]


def compare_schemes(
    scenario,
    schemes: Sequence[Scheme],
    baseline: Scheme,
    seeds: Sequence[int],
    effort: Effort = Effort.FAST,
    **engine,
) -> FigureResult:
    """Mean APL reduction vs ``baseline`` per scheme, with CIs across seeds.

    One row per scheme of a replicated cell plan: reductions are paired
    per seed (same traffic realization for scheme and baseline), which
    removes most workload noise from the comparison; a seed that lost
    either cell is dropped from that row, and a row with no seed left
    reads ``FAILED(...)``. ``significant`` says whether the per-seed
    ``red_avg`` samples decide a sign (:meth:`SweepResult.verdict`).
    ``engine`` is forwarded verbatim (``jobs``, ``cache``, ``policy``,
    ``obs``, ``guard``, ``service``).
    """

    def cell(scheme: Scheme) -> Cell:
        return Cell.for_scenario(scheme, scenario, effort, 0)  # re-seeded per seed

    result = run_figure(
        [({"scheme": s.key}, cell(s), cell(baseline)) for s in schemes],
        reduction_columns,
        effort=effort,
        figure="Sweep",
        title=f"APL reduction vs {baseline.key} on {scenario.name} ({len(seeds)} seeds)",
        columns=["scheme", "red_avg", "drained"],
        seeds=seeds,
        **engine,
    )
    result.columns.append("significant")
    for i, row in enumerate(result.rows):  # a row with no seed left decides nothing
        reds = [table[i]["red_avg"] for table in result.seed_rows]
        kept = [red for red in reds if isinstance(red, float)]
        row["significant"] = SweepResult("red_avg", kept).excludes_zero() if kept else ""
    return result


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.sweep [--seeds 5] [--scenario six_app]

    Replicated scheme comparison with CIs on one registry scenario.
    """
    parser = effort_argparser(main.__doc__)
    parser.set_defaults(seeds=5)
    parser.add_argument(
        "--scenario", default="six_app", choices=sorted(SCENARIO_BUILDERS),
        help="registry scenario builder",
    )
    parser.add_argument(
        "--schemes", nargs="*", default=["RO_Rank", "RA_DBAR", "RA_RAIR"],
        help="schemes to compare against the baseline",
    )
    parser.add_argument("--baseline", default="RO_RR")
    args = parser.parse_args(argv)
    builder = SCENARIO_BUILDERS[args.scenario]

    def run(effort: Effort, seed: int, topology: str, seeds, **engine) -> FigureResult:
        try:
            scenario = builder()
        except TypeError as exc:
            raise SystemExit(
                f"scenario {args.scenario!r} needs arguments this CLI does not "
                f"take ({exc}); use six_app or parsec_quadrants"
            ) from None
        config = config_for_topology(topology, num_vnets=scenario.config.num_vnets)
        if config is not None:
            scenario = builder(config=config)
        return compare_schemes(
            scenario,
            schemes=[SCHEMES[k] for k in args.schemes],
            baseline=SCHEMES[args.baseline],
            seeds=seeds,
            effort=effort,
            **engine,
        )

    return run_from_args(run, args)


if __name__ == "__main__":
    raise SystemExit(main())
