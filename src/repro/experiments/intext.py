"""§III.B in text: the share of application-to-core mappings LBDR admits.

The paper's one in-text number this reproduction computes: with 16 cores,
4 memory controllers and 4 applications of 4 threads each, "only ≈ 14 %"
of application-to-core mappings put a memory controller in every region,
so LBDR's region-confined routing can reach memory
(:func:`repro.analysis.lbdr_valid_fraction`, in closed form).

Nothing is simulated, so the table is the same at every effort and seed.
With ``seeds`` it stands for each seed's table, and the claim on it
(``fidelity.CLAIMS``) reads as exact: a CI of zero.
"""

from __future__ import annotations

from repro.analysis import lbdr_valid_fraction
from repro.experiments.runner import FigureResult

__all__ = ["run", "main", "PAPER_LBDR"]

#: §III.B: "only 14 %" of mappings survive LBDR (16 cores, 4 MCs, 4 apps)
PAPER_LBDR = 0.14


def run(seeds=None, **_unused) -> FigureResult:
    """The in-text table. It runs no cell, so effort, seed and the engine's
    keywords do not apply."""
    rows = [{
        "result": "III.B LBDR-admissible mappings (16 cores, 4 MCs, 4 apps)",
        "paper": PAPER_LBDR,
        "ours": lbdr_valid_fraction(16, 4, 4),
    }]
    return FigureResult(
        figure="In-text",
        title="The paper's in-text numbers, computed",
        columns=["result", "paper", "ours"],
        rows=rows,
        seed_rows=[rows] * len(seeds) if seeds else [rows],
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.intext"""
    print(run().format_table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
