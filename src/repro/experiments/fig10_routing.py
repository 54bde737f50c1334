"""E-F10 — Figure 10: RAIR with different adaptive routing algorithms.

Same two-application scenario as Fig. 9, comparing:

* ``RO_RR_Local``  — round-robin + local-adaptive (Duato) routing,
* ``RAIR_Local``   — RAIR + local-adaptive routing,
* ``RO_RR_DBAR``   — round-robin + DBAR routing,
* ``RAIR_DBAR``    — RAIR + DBAR routing.

Paper shape: RAIR_DBAR gives the lowest App0 APL (paper: −24.8% vs
RO_RR_Local at p=100%) and recovers App1's slowdown (−3.3%, i.e. App1 under
RAIR_DBAR is no worse than under RO_RR_Local); RAIR contributes more of the
gain than DBAR alone (RAIR_DBAR improves App0 by ~12.8% over RO_RR_DBAR).
"""

from __future__ import annotations

from repro.experiments.fig09_msp import two_app_sweep
from repro.experiments.cellplan import figure_main
from repro.experiments.runner import Effort, FigureResult

__all__ = ["run", "main", "FIG10_SCHEMES"]

FIG10_SCHEMES = ("RO_RR_Local", "RAIR_Local", "RO_RR_DBAR", "RAIR_DBAR")
P_VALUES = (0.0, 0.5, 1.0)


def run(
    effort: Effort = Effort.MEDIUM, seed: int = 42, p_values=P_VALUES,
    schemes=FIG10_SCHEMES, topology: str = "mesh", **engine,
) -> FigureResult:
    """Run the Fig. 10 comparison; one row per (p, scheme)."""
    return two_app_sweep(
        effort, seed, p_values, schemes, topology,
        figure="Figure 10",
        title="APL per routing algorithm (two-app scenario)",
        notes=[
            "expected shape: RAIR_DBAR best on apl_app0; RAIR_* << RO_RR_* ; "
            "DBAR routing also helps App1",
        ],
        **engine,
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.fig10_routing [--effort fast]"""
    return figure_main(run, __doc__, argv)


if __name__ == "__main__":
    raise SystemExit(main())
