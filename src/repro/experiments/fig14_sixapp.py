"""E-F14 — Figure 14: six concurrent applications, uniform-random global
traffic.

Fig. 13 scenario: six regions, loads 10-30% of saturation for Apps 0/2/3/4
and 90% for Apps 1/5; per-app traffic 75% intra-region UR, 20% inter-region
UR, 5% corner-MC. Compared schemes: RO_RR (baseline), RO_Rank, RA_DBAR,
RA_RAIR.

Paper shape: RA_RAIR best on average (−10.1% vs RO_RR), then RO_Rank
(−5.8%), then RA_DBAR (−3.4%); RAIR's gain concentrates on the low/medium
load applications while costing the high-load apps little.
"""

from __future__ import annotations

from repro.experiments.cellplan import figure_main, reduction_columns, run_figure
from repro.experiments.parallel import Cell
from repro.experiments.runner import SCHEMES, Effort, FigureResult
from repro.experiments.scenarios import SIX_APP_LOADS, six_app
from repro.noc.config import NocConfig

__all__ = ["run", "main", "FIG14_SCHEMES"]

FIG14_SCHEMES = ("RA_DBAR", "RO_Rank", "RA_RAIR")


def run(
    effort: Effort = Effort.MEDIUM, seed: int = 42, schemes=FIG14_SCHEMES,
    global_pattern: str = "ur", topology: str = "mesh", **engine,
) -> FigureResult:
    """Run the six-app comparison; rows carry per-app APL reduction vs RO_RR."""
    scenario = six_app(
        global_pattern=global_pattern, config=NocConfig(topology=topology)
    )

    def cell(key: str) -> Cell:
        return Cell.for_scenario(SCHEMES[key], scenario, effort, seed)

    plan = [({"scheme": key}, cell(key), cell("RO_RR")) for key in schemes]
    return run_figure(
        plan,
        reduction_columns,
        effort=effort,
        figure="Figure 14",
        title=(
            f"APL reduction vs RO_RR, six-app scenario, global pattern "
            f"{global_pattern.upper()}"
        ),
        columns=["scheme"]
        + [f"red_app{i}" for i in range(len(SIX_APP_LOADS))]
        + ["red_avg", "drained"],
        notes=["expected shape: RA_RAIR > RO_Rank > RA_DBAR on red_avg"],
        **engine,
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.fig14_sixapp [--effort fast]"""
    return figure_main(run, __doc__, argv)


if __name__ == "__main__":
    raise SystemExit(main())
