"""E-F15 — Figure 15: APL reduction under different global traffic patterns.

The Fig. 13 six-app scenario with its 20% inter-region component drawn
from each of the paper's synthetic patterns: uniform random (UR),
transpose (TP), bit complement (BC), hotspot (HS). Reported value is the
average APL reduction vs RO_RR per scheme and pattern.

Paper shape: RA_RAIR reduces APL across *all* patterns (average −13.4%),
demonstrating that RAIR places no implicit restriction on the global
traffic pattern; the baseline orderings of Fig. 14 persist per pattern.
"""

from __future__ import annotations

from repro.experiments.cellplan import figure_main, reduction_columns, run_figure
from repro.experiments.parallel import Cell
from repro.experiments.runner import SCHEMES, Effort, FigureResult
from repro.experiments.scenarios import six_app
from repro.noc.config import NocConfig

__all__ = ["run", "main", "PATTERNS"]

PATTERNS = ("ur", "tp", "bc", "hs")
FIG15_SCHEMES = ("RA_DBAR", "RO_Rank", "RA_RAIR")


def run(
    effort: Effort = Effort.MEDIUM, seed: int = 42, patterns=PATTERNS,
    schemes=FIG15_SCHEMES, topology: str = "mesh", **engine,
) -> FigureResult:
    """One row per (pattern, scheme) with the average APL reduction vs RO_RR.

    Patterns a fabric cannot express (e.g. transpose on a ring) render as
    FAILED rows.
    """
    config = NocConfig(topology=topology)
    plan = []
    for pattern in patterns:
        scenario = six_app(global_pattern=pattern, config=config)
        baseline = Cell.for_scenario(SCHEMES["RO_RR"], scenario, effort, seed)
        for key in schemes:
            cell = Cell.for_scenario(SCHEMES[key], scenario, effort, seed)
            plan.append(({"pattern": pattern.upper(), "scheme": key}, cell, baseline))
    return run_figure(
        plan,
        lambda run, base: {
            "red_avg": reduction_columns(run, base)["red_avg"],
            "drained": run.drained,
        },
        effort=effort,
        figure="Figure 15",
        title="Average APL reduction vs RO_RR per global traffic pattern",
        columns=["pattern", "scheme", "red_avg", "drained"],
        notes=[
            "expected shape: RA_RAIR positive for every pattern and best "
            "on average",
        ],
        **engine,
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.fig15_patterns [--effort fast]"""
    return figure_main(run, __doc__, argv)


if __name__ == "__main__":
    raise SystemExit(main())
