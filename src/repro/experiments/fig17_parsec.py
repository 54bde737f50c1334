"""E-F17 — Figure 17: protecting applications from adversarial traffic.

Four PARSEC-like applications run in quadrants (Fig. 16). For each scheme
the scenario runs twice — without and with a uniform chip-wide adversarial
flood at 0.4 flits/cycle/node — and the reported value is each
application's APL *slowdown* (APL_with / APL_without).

Paper shape (average slowdowns): RO_RR 1.92 > RA_DBAR 1.75 > RO_Rank 1.47
> RA_RAIR 1.18. RAIR wins because the flood is foreign traffic to every
region, so DPA demotes it everywhere; STC ranks it last but batching still
lets its older packets through; round-robin treats it as a peer.
"""

from __future__ import annotations

from repro.experiments.cellplan import figure_main, run_figure
from repro.experiments.parallel import Cell
from repro.experiments.runner import SCHEMES, Effort, FigureResult
from repro.experiments.scenarios import PARSEC_APP_ORDER, parsec_quadrants
from repro.noc.config import NocConfig

__all__ = ["run", "main", "FIG17_SCHEMES"]

FIG17_SCHEMES = ("RO_RR", "RA_DBAR", "RO_Rank", "RA_RAIR")
_SLOW_COLUMNS = [f"slow_{name[:6]}" for name in PARSEC_APP_ORDER]


def _slowdowns(adv, clean) -> dict:
    slow = {}
    for app, column in enumerate(_SLOW_COLUMNS):
        a, b = adv.per_app_apl.get(app), clean.per_app_apl.get(app)
        slow[column] = a / b if (a and b) else float("nan")
    drained = clean.drained and adv.drained
    return {**slow, "slow_avg": sum(slow.values()) / len(slow), "drained": drained}


def run(
    effort: Effort = Effort.MEDIUM, seed: int = 42, schemes=FIG17_SCHEMES,
    adversarial_rate: float | None = None, topology: str = "mesh", **engine,
) -> FigureResult:
    """One row per scheme: per-app and average slowdown, attacked vs clean run.

    ``adversarial_rate=None`` uses the calibrated equivalent of the
    paper's 0.4 flits/cycle/node (same fraction of saturation; see
    ``scenarios.ADVERSARIAL_PRESSURE``).
    """
    config = NocConfig(topology=topology, num_vnets=2)
    clean = parsec_quadrants(adversarial=False, config=config)
    attacked = parsec_quadrants(
        adversarial=True, adversarial_rate=adversarial_rate, config=config
    )

    def cell(key: str, scenario) -> Cell:
        return Cell.for_scenario(SCHEMES[key], scenario, effort, seed)

    plan = [({"scheme": k}, cell(k, attacked), cell(k, clean)) for k in schemes]
    return run_figure(
        plan,
        _slowdowns,
        effort=effort,
        figure="Figure 17",
        title=f"APL slowdown under {attacked.spec.kwargs['adversarial_rate']:.3f} "
        "flits/cycle/node adversarial flood (PARSEC-like apps)",
        columns=["scheme", *_SLOW_COLUMNS, "slow_avg", "drained"],
        notes=[
            "expected shape: slow_avg RO_RR > RA_DBAR > RO_Rank > RA_RAIR",
            "PARSEC traces are synthesized (DESIGN.md substitution #2)",
        ],
        **engine,
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.fig17_parsec [--effort fast]"""
    return figure_main(run, __doc__, argv)


if __name__ == "__main__":
    raise SystemExit(main())
