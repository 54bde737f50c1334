"""E-A3 — ablation: RAIR across deadlock-free routing algorithms.

Section IV.D claims RAIR composes with "virtually any deadlock avoidance
or recovery routing algorithm"; the paper demonstrates two (local-adaptive
and DBAR, Fig. 10). This ablation extends the demonstration to the full
routing zoo in :mod:`repro.routing` — deterministic XY, the two turn
models (West-First, Odd-Even), Duato local-adaptive, and DBAR — on the
two-application scenario at p=100% inter-region, reporting RAIR's App0
gain and App1 cost over RO_RR *under the same routing*.
"""

from __future__ import annotations

from repro.experiments.cellplan import figure_main, run_figure
from repro.experiments.parallel import Cell
from repro.experiments.runner import Effort, FigureResult, Scheme
from repro.experiments.scenarios import two_app_msp
from repro.noc.config import NocConfig

__all__ = ["run", "main", "ROUTINGS"]

ROUTINGS = ("xy", "west_first", "odd_even", "local", "dbar")


def _rair_vs_rr(rair, base) -> dict:
    return {
        "apl_app0_rr": base.per_app_apl[0],
        "apl_app0_rair": rair.per_app_apl[0],
        "red_app0": rair.reduction_vs(base, app=0),
        "red_app1": rair.reduction_vs(base, app=1),
        "drained": base.drained and rair.drained,
    }


def run(
    effort: Effort = Effort.MEDIUM, seed: int = 42, routings=ROUTINGS,
    topology: str = "mesh", **engine,
) -> FigureResult:
    """One row per routing algorithm; reductions are RAIR vs RO_RR.

    The turn models (west_first, odd_even) are mesh-only and render as
    ``FAILED(ConfigError)`` rows on torus/ring fabrics.
    """
    scenario = two_app_msp(1.0, config=NocConfig(topology=topology))

    def cell(prefix: str, policy_name: str, routing: str) -> Cell:
        scheme = Scheme(f"{prefix}_{routing}", policy_name, routing)
        return Cell.for_scenario(scheme, scenario, effort, seed)

    plan = [
        ({"routing": r}, cell("RAIR", "rair", r), cell("RO_RR", "rr", r))
        for r in routings
    ]
    return run_figure(
        plan,
        _rair_vs_rr,
        effort=effort,
        figure="Ablation A3",
        title="RAIR gain under different deadlock-free routing algorithms "
        "(two-app scenario, p=100%)",
        columns=[
            "routing", "apl_app0_rr", "apl_app0_rair", "red_app0", "red_app1",
            "drained",
        ],
        notes=[
            "expected shape: red_app0 positive for every routing (Section "
            "IV.D routing-independence claim)",
        ],
        **engine,
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.ablation_routing [--effort fast]"""
    return figure_main(run, __doc__, argv)


if __name__ == "__main__":
    raise SystemExit(main())
