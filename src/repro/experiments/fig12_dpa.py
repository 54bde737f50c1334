"""E-F12 — Figure 12: impact of dynamic priority adaptation.

Two contrasting four-application scenarios (Fig. 11):

* (a) three low-load apps send 30% of their traffic into the high-load
  app's region — static *foreign-high* priority should win;
* (b) the high-load app sends 30% of its traffic into the low-load apps'
  regions — static *native-high* priority should win.

Compared schemes: RO_RR, RAIR_NativeH, RAIR_ForeignH, RAIR_DPA. The paper
reports APL *reduction vs RO_RR* per application; DPA should match (or
slightly beat) the better static variant in each scenario (paper:
−12.8% / −12.2% average).
"""

from __future__ import annotations

from repro.experiments.cellplan import figure_main, reduction_columns, run_figure
from repro.experiments.parallel import Cell
from repro.experiments.runner import SCHEMES, Effort, FigureResult
from repro.experiments.scenarios import four_app_dpa
from repro.noc.config import NocConfig

__all__ = ["run", "main", "FIG12_SCHEMES"]

FIG12_SCHEMES = ("RAIR_NativeH", "RAIR_ForeignH", "RAIR_DPA")


def run(
    effort: Effort = Effort.MEDIUM, seed: int = 42, variants=("a", "b"),
    schemes=FIG12_SCHEMES, topology: str = "mesh", **engine,
) -> FigureResult:
    """Run both Fig. 12 scenarios; rows carry per-app reduction vs RO_RR."""
    config = NocConfig(topology=topology)
    plan = []
    for variant in variants:
        scenario = four_app_dpa(variant, config=config)
        baseline = Cell.for_scenario(SCHEMES["RO_RR"], scenario, effort, seed)
        for key in schemes:
            cell = Cell.for_scenario(SCHEMES[key], scenario, effort, seed)
            plan.append(({"scenario": variant, "scheme": key}, cell, baseline))
    return run_figure(
        plan,
        reduction_columns,
        effort=effort,
        figure="Figure 12",
        title="APL reduction vs RO_RR (positive = better) per app",
        columns=["scenario", "scheme"]
        + [f"red_app{i}" for i in range(4)]
        + ["red_avg", "drained"],
        notes=[
            "expected shape: ForeignH wins (a), NativeH wins (b), DPA ~ best "
            "of both in each scenario",
        ],
        **engine,
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.fig12_dpa [--effort fast]"""
    return figure_main(run, __doc__, argv)


if __name__ == "__main__":
    raise SystemExit(main())
