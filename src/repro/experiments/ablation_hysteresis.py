"""E-A1 — ablation: DPA hysteresis width (paper Section IV.C).

The paper observes that hysteresis deltas between 0.1 and 0.3 "typically
render better performance with the best case achieved at around 0.2".
This ablation sweeps delta over the six-application scenario and reports
the average APL reduction vs RO_RR; delta=0 (no hysteresis) is included to
show the cost of reacting to every transient VC-occupancy flip.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.dpa import DpaConfig
from repro.experiments.cellplan import figure_main, reduction_columns, run_figure
from repro.experiments.parallel import Cell
from repro.experiments.runner import SCHEMES, Effort, FigureResult
from repro.experiments.scenarios import six_app
from repro.noc.config import NocConfig

__all__ = ["run", "main", "DELTAS", "red_avg_and_apl"]

DELTAS = (0.0, 0.1, 0.2, 0.3, 0.4)


def red_avg_and_apl(run, base) -> dict:
    """Average APL reduction vs the baseline run, and the run's own APL."""
    return {
        "red_avg": reduction_columns(run, base)["red_avg"],
        "apl": run.apl,
        "drained": run.drained,
    }


def run(
    effort: Effort = Effort.MEDIUM, seed: int = 42, deltas=DELTAS,
    topology: str = "mesh", **engine,
) -> FigureResult:
    """One row per hysteresis delta."""
    scenario = six_app(config=NocConfig(topology=topology))
    baseline = Cell.for_scenario(SCHEMES["RO_RR"], scenario, effort, seed)
    # The key stays RA_RAIR: each row is the paper's scheme at its own delta.
    rair = SCHEMES["RA_RAIR"]
    plan = [
        (
            {"delta": delta},
            Cell.for_scenario(
                replace(rair, policy_kwargs={"dpa": DpaConfig(delta=delta)}),
                scenario, effort, seed,
            ),
            baseline,
        )
        for delta in deltas
    ]
    return run_figure(
        plan,
        red_avg_and_apl,
        effort=effort,
        figure="Ablation A1",
        title="DPA hysteresis delta sweep (six-app scenario, reduction vs RO_RR)",
        columns=["delta", "red_avg", "apl", "drained"],
        notes=["paper: delta in 0.1-0.3 best, ~0.2 optimal"],
        **engine,
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.ablation_hysteresis [--effort fast]"""
    return figure_main(run, __doc__, argv)


if __name__ == "__main__":
    raise SystemExit(main())
