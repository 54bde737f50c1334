"""Seed-replicated sweeps with confidence intervals.

Single-seed comparisons near an operating knee can flip orderings run to
run; the paper's 100K-cycle windows average that noise away, our scaled
windows do not. This module provides the statistical machinery the
shorter windows need:

* :func:`replicate` — run one (scheme, scenario) across seeds, returning
  per-app APL samples,
* :class:`SweepResult` — mean / standard error / Student-t confidence
  intervals per metric,
* :func:`compare_schemes` — replicate several schemes on one scenario and
  report mean reductions vs a baseline with CIs, ready for
  :class:`~repro.experiments.runner.FigureResult` rendering.

Used by tests to quantify the noise floor quoted in EXPERIMENTS.md.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.experiments.parallel import Cell, run_cells, run_cells_detailed
from repro.experiments.runner import Effort, FigureResult, Scheme, run_scenario
from repro.util.errors import ConfigError

__all__ = ["SweepResult", "replicate", "compare_schemes", "main"]


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

    def confidence_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Student-t CI of the mean (degenerate to a point for n == 1)."""
        if not 0 < level < 1:
            raise ConfigError(f"confidence level must be in (0,1), got {level}")
        if self.n < 2:
            return (self.mean, self.mean)
        # Imported here: scipy.stats costs ~0.7 s and ~60 MB, and every CLI,
        # worker process and daemon imports this module via repro.experiments.
        from scipy import stats as sp_stats

        half = self.std_error * sp_stats.t.ppf(0.5 + level / 2, df=self.n - 1)
        return (self.mean - half, self.mean + half)

    def excludes_zero(self, level: float = 0.95) -> bool:
        """Whether the CI excludes zero (a 'significant' reduction)."""
        lo, hi = self.confidence_interval(level)
        return lo > 0 or hi < 0


def _scenario_runs(
    scheme: Scheme,
    scenario,
    seeds: Sequence[int],
    effort: Effort,
    jobs: int,
    cache,
):
    """One run per seed, in seed order — serial or via the cell engine."""
    if jobs == 1 and cache is None:
        return [run_scenario(scheme, scenario, effort=effort, seed=s) for s in seeds]
    cells = [Cell.for_scenario(scheme, scenario, effort, s) for s in seeds]
    runs, _ = run_cells(cells, jobs=jobs, cache=cache)
    return runs


def replicate(
    scheme: Scheme,
    scenario,
    seeds: Sequence[int],
    effort: Effort = Effort.FAST,
    jobs: int = 1,
    cache=None,
) -> dict[int, SweepResult]:
    """Per-app APL samples across ``seeds``; key -1 holds the overall APL.

    ``jobs`` fans the seeds out over worker processes and ``cache`` reuses
    cells already computed on disk; both leave the samples bit-identical
    to the serial path (same seeds, same ordering).
    """
    if not seeds:
        raise ConfigError("need at least one seed")
    per_app: dict[int, list[float]] = {}
    overall: list[float] = []
    for run in _scenario_runs(scheme, scenario, seeds, effort, jobs, cache):
        overall.append(run.apl)
        for app, apl in run.per_app_apl.items():
            per_app.setdefault(app, []).append(apl)
    out = {
        app: SweepResult(f"{scheme.key}/app{app}", vals) for app, vals in per_app.items()
    }
    out[-1] = SweepResult(f"{scheme.key}/overall", overall)
    return out


def compare_schemes(
    scenario,
    schemes: Sequence[Scheme],
    baseline: Scheme,
    seeds: Sequence[int],
    effort: Effort = Effort.FAST,
    level: float = 0.95,
    **engine,
) -> FigureResult:
    """Mean APL reduction vs ``baseline`` per scheme, with CIs across seeds.

    Reductions are paired per seed (same traffic realization for scheme
    and baseline), which removes most workload noise from the comparison.

    All ``(scheme, seed)`` cells run as **one** fault-tolerant sweep, so
    an interrupted comparison resumes from a single journal and a failed
    cell degrades gracefully: the affected seed pairs are dropped from
    that scheme's samples (``n`` shrinks, ``dropped`` counts them) and a
    scheme left with no surviving pair renders as a ``FAILED(...)`` row.
    ``engine`` is forwarded verbatim to
    :func:`~repro.experiments.parallel.run_cells_detailed` (``jobs``,
    ``cache``, ``policy``, ``obs``, ``guard``, ``service``).
    """
    seeds = list(seeds)
    all_schemes = [baseline, *schemes]
    cells = [
        Cell.for_scenario(scheme, scenario, effort, seed)
        for scheme in all_schemes
        for seed in seeds
    ]
    results, report = run_cells_detailed(cells, **engine)
    by_scheme = {
        scheme.key: results[i * len(seeds) : (i + 1) * len(seeds)]
        for i, scheme in enumerate(all_schemes)
    }
    base_results = dict(zip(seeds, by_scheme[baseline.key]))
    rows = []
    for scheme in schemes:
        reductions = []
        dropped = 0
        first_failure = None
        for seed, cell_res in zip(seeds, by_scheme[scheme.key]):
            base_res = base_results[seed]
            failed = next(
                (r for r in (cell_res, base_res) if not r.ok), None
            )
            if failed is not None:
                dropped += 1
                first_failure = first_failure or failed.failure
                continue
            run, base = cell_res.run, base_res.run
            apps = sorted(base.per_app_apl)
            reductions.append(
                sum(run.reduction_vs(base, app=a) for a in apps) / len(apps)
            )
        if not reductions:
            label = f"FAILED({first_failure.error_type})"
            rows.append(
                {
                    "scheme": scheme.key,
                    "red_mean": label,
                    "ci_lo": label,
                    "ci_hi": label,
                    "n": 0,
                    "dropped": dropped,
                    "significant": "",
                }
            )
            continue
        sweep = SweepResult(f"{scheme.key}/reduction", reductions)
        lo, hi = sweep.confidence_interval(level)
        rows.append(
            {
                "scheme": scheme.key,
                "red_mean": sweep.mean,
                "ci_lo": lo,
                "ci_hi": hi,
                "n": sweep.n,
                "dropped": dropped,
                "significant": sweep.excludes_zero(level),
            }
        )
    return FigureResult(
        metrics=report.to_metrics(),
        figure="Sweep",
        title=(
            f"APL reduction vs {baseline.key} on {scenario.name} "
            f"({len(seeds)} seeds, {int(level * 100)}% CI)"
        ),
        columns=[
            "scheme", "red_mean", "ci_lo", "ci_hi", "n", "dropped", "significant",
        ],
        rows=rows,
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.sweep [--seeds 5] [--scenario six_app]

    Replicated scheme comparison with CIs on one registry scenario.
    """
    from repro.experiments.report import (
        common_from_args,
        config_for_topology,
        effort_argparser,
        finish,
        parse_effort,
    )
    from repro.experiments.runner import SCHEMES
    from repro.experiments.scenarios import SCENARIO_BUILDERS

    parser = effort_argparser(main.__doc__)
    parser.add_argument(
        "--seeds", type=int, default=5, help="number of replication seeds"
    )
    parser.add_argument(
        "--scenario", default="six_app",
        help=f"registry scenario builder; known: {sorted(SCENARIO_BUILDERS)}",
    )
    parser.add_argument(
        "--schemes", nargs="*", default=["RO_Rank", "RA_DBAR", "RA_RAIR"],
        help="schemes to compare against the baseline",
    )
    parser.add_argument("--baseline", default="RO_RR")
    args = parser.parse_args(argv)
    try:
        builder = SCENARIO_BUILDERS[args.scenario]
    except KeyError:
        raise SystemExit(
            f"unknown scenario {args.scenario!r}; known: "
            f"{sorted(SCENARIO_BUILDERS)}"
        ) from None
    try:
        scenario = builder()
    except TypeError as exc:
        raise SystemExit(
            f"scenario {args.scenario!r} needs arguments this CLI does not "
            f"take ({exc}); use six_app or parsec_quadrants"
        ) from None
    engine = common_from_args(args)
    config = config_for_topology(
        engine.pop("topology"), num_vnets=scenario.config.num_vnets
    )
    if config is not None:
        scenario = builder(config=config)
    result = compare_schemes(
        scenario,
        schemes=[SCHEMES[k] for k in args.schemes],
        baseline=SCHEMES[args.baseline],
        seeds=[args.seed + i for i in range(args.seeds)],
        effort=parse_effort(args.effort),
        **engine,
    )
    return finish(result)


if __name__ == "__main__":
    raise SystemExit(main())
