"""Experiment harness: one module per paper table/figure plus ablations.

Each figure module exposes ``run(effort=...) -> FigureResult`` and a
``main()`` CLI entry point; ``FigureResult.format_table()`` prints the same
rows/series the paper reports. A figure module is a declaration — default
axes, a cell plan (per row: label columns, its own cell, and the reference
cell it is compared against), a projection from finished runs to value
columns, and captions. :mod:`repro.experiments.cellplan` is the one place
that runs a plan through the cell engine — once, or once per seed with
``seeds=[...]``, reducing value columns to mean ± CI half-width —
renders rows (failed ones included), and provides the CLI. The ``effort``
knob scales the paper's 10K-warmup / 100K-measure windows down so the
full suite completes on one machine (DESIGN.md §5); the window used is
always recorded in the result.

Index (DESIGN.md §3):

====== =====================================  ==============================
id     module                                 paper artifact
====== =====================================  ==============================
E-T1   :mod:`repro.experiments.table1`        Table 1 (configuration)
E-F9   :mod:`repro.experiments.fig09_msp`     Fig. 9 (MSP, p sweep)
E-F10  :mod:`repro.experiments.fig10_routing` Fig. 10 (routing algorithms)
E-F12  :mod:`repro.experiments.fig12_dpa`     Fig. 12(a)(b) (DPA)
E-F14  :mod:`repro.experiments.fig14_sixapp`  Fig. 14 (six applications)
E-F15  :mod:`repro.experiments.fig15_patterns` Fig. 15 (global patterns)
E-F17  :mod:`repro.experiments.fig17_parsec`  Fig. 17 (PARSEC + adversary)
E-A1   :mod:`repro.experiments.ablation_hysteresis`  DPA delta sweep
E-A2   :mod:`repro.experiments.ablation_vcsplit`     regional:global VC split
E-A3   :mod:`repro.experiments.ablation_routing`     RAIR across routing algorithms
====== =====================================  ==============================
"""

from repro.experiments.cache import ResultCache, SweepJournal, cache_key
from repro.experiments.cellplan import SweepResult
from repro.experiments.parallel import (
    Cell,
    CellFailure,
    CellResult,
    ExecutionReport,
    FaultPolicy,
    run_cells_detailed,
)
from repro.experiments.runner import (
    Effort,
    FigureResult,
    Scheme,
    SCHEMES,
    ScenarioRun,
    run_scenario,
)
from repro.experiments.saturation_table import saturation_load
from repro.experiments.scenarios import ScenarioSpec

__all__ = [
    "Effort",
    "FigureResult",
    "Scheme",
    "SCHEMES",
    "ScenarioRun",
    "ScenarioSpec",
    "run_scenario",
    "saturation_load",
    "SweepResult",
    "Cell",
    "CellFailure",
    "CellResult",
    "ExecutionReport",
    "FaultPolicy",
    "run_cells_detailed",
    "ResultCache",
    "SweepJournal",
    "cache_key",
]
