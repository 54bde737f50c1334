"""Seed-replicated scheme comparison with confidence intervals.

Single-seed comparisons near an operating knee can flip orderings run to
run; the paper's 100K-cycle windows average that noise away, our scaled
windows do not. Replication itself is the seed axis of the one cell plan
(:func:`repro.experiments.cellplan.run_figure`, ``seeds=[...]``); this
module holds what that axis needs and the tool built on it:

* :class:`SweepResult` — mean / standard error / Student-t confidence
  interval of one metric's samples, the aggregator every replicated
  column goes through,
* :func:`compare_schemes` — a cell plan of several schemes against one
  baseline on one scenario, reduced over seeds,
* the ``python -m repro.experiments.sweep`` CLI over registry scenarios.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.experiments.cellplan import reduction_columns, run_figure, run_from_args
from repro.experiments.parallel import Cell
from repro.experiments.report import config_for_topology, effort_argparser
from repro.experiments.runner import SCHEMES, Effort, FigureResult, Scheme
from repro.experiments.scenarios import SCENARIO_BUILDERS
from repro.util.errors import ConfigError

__all__ = ["SweepResult", "compare_schemes", "main"]


@dataclass
class SweepResult:
    """Samples of one scalar metric across replications."""

    name: str
    samples: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.size == 0:
            raise ConfigError(f"sweep {self.name!r} has no samples")

    @property
    def n(self) -> int:
        return int(self.samples.size)

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def std_error(self) -> float:
        if self.n < 2:
            return float("nan")
        return float(self.samples.std(ddof=1) / np.sqrt(self.n))

    def half_width(self, level: float = 0.95) -> float:
        """Half-width of the Student-t CI of the mean; ``nan`` for one
        sample, which bounds nothing."""
        if not 0 < level < 1:
            raise ConfigError(f"confidence level must be in (0,1), got {level}")
        if self.n < 2:
            return float("nan")
        # Imported here: scipy.stats costs ~0.7 s and ~60 MB, and every CLI,
        # worker process and daemon imports this module via repro.experiments.
        from scipy import stats as sp_stats

        return float(self.std_error * sp_stats.t.ppf(0.5 + level / 2, df=self.n - 1))

    def confidence_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Student-t CI of the mean (degenerate to a point for n == 1)."""
        half = self.half_width(level)
        return (self.mean - half, self.mean + half) if self.n > 1 else (self.mean,) * 2

    def excludes_zero(self, level: float = 0.95) -> bool:
        """Whether the CI excludes zero (a 'significant' reduction); one
        sample decides nothing."""
        return abs(self.mean) > self.half_width(level)


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
    reads ``FAILED(...)``. ``significant`` says whether the interval of
    ``red_avg`` excludes zero. ``engine`` is forwarded verbatim (``jobs``,
    ``cache``, ``policy``, ``obs``, ``guard``, ``service``).
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
    for row in result.rows:  # a failed row decides nothing; nor does n == 1 (nan half-width)
        row["significant"] = abs(row["red_avg"]) > row["red_avg_ci"] if row["n"] else ""
    return result


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.sweep [--seeds 5] [--scenario six_app]

    Replicated scheme comparison with CIs on one registry scenario.
    """
    parser = effort_argparser(main.__doc__)
    parser.add_argument(
        "--seeds", type=int, default=5, help="number of replication seeds"
    )
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

    def run(effort: Effort, seed: int, topology: str, **engine) -> FigureResult:
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
            seeds=[seed + i for i in range(args.seeds)],
            effort=effort,
            **engine,
        )

    return run_from_args(run, args)


if __name__ == "__main__":
    raise SystemExit(main())
