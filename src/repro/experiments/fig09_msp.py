"""E-F9 — Figure 9: impact of multi-stage prioritization.

Two applications (Fig. 8 layout); the inter-region share ``p`` of the
low-load application is swept from 0% to 100%. Compared schemes:

* ``RO_RR`` — region-oblivious round-robin,
* ``RAIR_VA`` — MSP rules at the VA stage only,
* ``RAIR_VA+SA`` — full MSP (VA and SA stages).

Paper shape to reproduce: all APLs grow with ``p``; RAIR variants cut
App0's APL sharply (paper: −18.9% at p=100% for VA+SA) at almost no cost
to App1 (<+3%); VA+SA beats VA across the sweep.
"""

from __future__ import annotations

from repro.experiments.cellplan import figure_main, run_figure
from repro.experiments.parallel import Cell
from repro.experiments.runner import SCHEMES, Effort, FigureResult
from repro.experiments.scenarios import two_app_msp
from repro.noc.config import NocConfig

__all__ = ["run", "main", "two_app_sweep", "P_VALUES", "FIG9_SCHEMES"]

P_VALUES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
FIG9_SCHEMES = ("RO_RR", "RAIR_VA", "RAIR_VA+SA")


def _apl_columns(run, _ref) -> dict:
    return {
        "apl_app0": run.per_app_apl.get(0, float("nan")),
        "apl_app1": run.per_app_apl.get(1, float("nan")),
        "drained": run.drained,
    }


def two_app_sweep(effort, seed, p_values, schemes, topology, **figure) -> FigureResult:
    """Both apps' APL on the Fig. 8 scenario; one row per (p, scheme)."""
    config = NocConfig(topology=topology)
    plan = []
    for p in p_values:
        scenario = two_app_msp(p, config=config)
        for key in schemes:
            cell = Cell.for_scenario(SCHEMES[key], scenario, effort, seed)
            plan.append(({"p_inter": f"{p:.0%}", "scheme": key}, cell, None))
    return run_figure(
        plan,
        _apl_columns,
        effort=effort,
        columns=["p_inter", "scheme", "apl_app0", "apl_app1", "drained"],
        **figure,
    )


def run(
    effort: Effort = Effort.MEDIUM, seed: int = 42, p_values=P_VALUES,
    schemes=FIG9_SCHEMES, topology: str = "mesh", **engine,
) -> FigureResult:
    """Run the Fig. 9 sweep; one row per (p, scheme)."""
    return two_app_sweep(
        effort, seed, p_values, schemes, topology,
        figure="Figure 9",
        title="APL of App0 (low, p% inter-region) and App1 (high, intra) per scheme",
        windows_suffix=" (paper: 10000/100000)",
        notes=[
            "expected shape: RAIR_VA+SA < RAIR_VA < RO_RR on apl_app0; "
            "apl_app1 penalty small",
        ],
        **engine,
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.fig09_msp [--effort fast]"""
    return figure_main(run, __doc__, argv)


if __name__ == "__main__":
    raise SystemExit(main())
