"""E-A2 — ablation: regional vs global VC split (paper Section VI).

The paper argues a roughly even split between regional and global VCs
supports generic traffic best: skewing towards regional VCs starves
foreign traffic's acceleration, skewing towards global VCs delays native
traffic's priority acquisition. This ablation runs the six-application
scenario with 1:3, 2:2 and 3:1 (global:regional) splits of the four VCs
per virtual network.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.ablation_hysteresis import red_avg_and_apl
from repro.experiments.cellplan import figure_main, run_figure
from repro.experiments.parallel import Cell
from repro.experiments.runner import SCHEMES, Effort, FigureResult
from repro.experiments.scenarios import six_app
from repro.noc.config import NocConfig, VcClass

__all__ = ["run", "main", "SPLITS"]

G = VcClass.GLOBAL
R = VcClass.REGIONAL

#: (label, vc_classes) — index 0 is always the escape VC of its vnet.
SPLITS = (
    ("1G:3R", (G, R, R, R)),
    ("2G:2R", (G, G, R, R)),
    ("3G:1R", (G, G, G, R)),
)


def run(
    effort: Effort = Effort.MEDIUM, seed: int = 42, splits=SPLITS,
    topology: str = "mesh", **engine,
) -> FigureResult:
    """One row per VC split; reductions are vs RO_RR on the same config."""
    base_cfg = NocConfig(topology=topology)
    plan = []
    for label, classes in splits:
        scenario = six_app(config=replace(base_cfg, vc_classes=classes))
        plan.append(
            (
                {"split": label},
                Cell.for_scenario(SCHEMES["RA_RAIR"], scenario, effort, seed),
                Cell.for_scenario(SCHEMES["RO_RR"], scenario, effort, seed),
            )
        )
    return run_figure(
        plan,
        red_avg_and_apl,
        effort=effort,
        figure="Ablation A2",
        title="Global:regional VC split (six-app scenario, reduction vs RO_RR)",
        columns=["split", "red_avg", "apl", "drained"],
        notes=[
            "paper (Section VI): roughly even split recommended for generic traffic",
        ],
        **engine,
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.ablation_vcsplit [--effort fast]"""
    return figure_main(run, __doc__, argv)


if __name__ == "__main__":
    raise SystemExit(main())
