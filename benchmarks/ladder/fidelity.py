"""Paper-shape agreement: which of the paper's orderings the model reproduces.

Simulated and exact — the same code and seed must give the same share,
bit for bit. The paper's magnitudes are the reference; the model's effect
sizes are known to be several times smaller (EXPERIMENTS.md), so the
magnitudes are printed beside the paper's as information and only the
orderings are counted.
"""

from __future__ import annotations

#: paper values printed beside ours (Fig. 14 red_avg, Fig. 17 slow_avg)
PAPER_VALUES = {
    ("fig14", "RA_RAIR"): 0.101,
    ("fig14", "RO_Rank"): 0.058,
    ("fig14", "RA_DBAR"): 0.034,
    ("fig17", "RO_RR"): 1.92,
    ("fig17", "RO_Rank"): 1.47,
    ("fig17", "RA_RAIR"): 1.18,
}
DPA_SLACK = 0.03  # "DPA matches the better static priority" tolerance, Fig. 12


def _dpa_near_best(dpa, native, foreign):
    return dpa >= max(native, foreign) - DPA_SLACK


#: (name, row keys, predicate over those rows' values) — 11 orderings
ORDERINGS = (
    ("fig09 VA+SA < VA", (("fig09", "RAIR_VA+SA"), ("fig09", "RAIR_VA")),
     lambda a, b: a < b),
    ("fig09 VA < RO_RR", (("fig09", "RAIR_VA"), ("fig09", "RO_RR")),
     lambda a, b: a < b),
    ("fig12a ForeignH > NativeH",
     (("fig12a", "RAIR_ForeignH"), ("fig12a", "RAIR_NativeH")), lambda a, b: a > b),
    ("fig12a DPA near best",
     (("fig12a", "RAIR_DPA"), ("fig12a", "RAIR_NativeH"), ("fig12a", "RAIR_ForeignH")),
     _dpa_near_best),
    ("fig12b NativeH > ForeignH",
     (("fig12b", "RAIR_NativeH"), ("fig12b", "RAIR_ForeignH")), lambda a, b: a > b),
    ("fig12b DPA near best",
     (("fig12b", "RAIR_DPA"), ("fig12b", "RAIR_NativeH"), ("fig12b", "RAIR_ForeignH")),
     _dpa_near_best),
    ("fig14 RA_RAIR > RO_Rank", (("fig14", "RA_RAIR"), ("fig14", "RO_Rank")),
     lambda a, b: a > b),
    ("fig14 RO_Rank > RA_DBAR", (("fig14", "RO_Rank"), ("fig14", "RA_DBAR")),
     lambda a, b: a > b),
    ("fig14 RA_RAIR > 0", (("fig14", "RA_RAIR"),), lambda a: a > 0),
    ("fig17 RO_RR > RO_Rank", (("fig17", "RO_RR"), ("fig17", "RO_Rank")),
     lambda a, b: a > b),
    ("fig17 RO_Rank > RA_RAIR", (("fig17", "RO_Rank"), ("fig17", "RA_RAIR")),
     lambda a, b: a > b),
)


def _mean_reduction(run, base) -> float:
    apps = sorted(base.per_app_apl)
    return sum(run.reduction_vs(base, app=a) for a in apps) / len(apps)


def _mean_slowdown(attacked, clean) -> float:
    apps = sorted(set(clean.per_app_apl) & set(attacked.per_app_apl))
    return sum(attacked.per_app_apl[a] / clean.per_app_apl[a] for a in apps) / len(apps)


def figure_rows(runs: dict) -> dict:
    """Figure values from finished cells.

    ``runs`` maps (cell tag, scheme) to a ``ScenarioRun``, or to ``None``
    for a cell that failed or was not run. A row whose cells are not all
    there is a string (``"FAILED"``), as in the figure tables.
    """
    rows: dict = {}

    def put(key, cells, fn):
        have = [runs.get(c) for c in cells]
        rows[key] = fn(*have) if all(r is not None for r in have) else "FAILED"

    for scheme in ("RO_RR", "RAIR_VA", "RAIR_VA+SA"):
        put(("fig09", scheme), [("fig09", scheme)], lambda r: r.per_app_apl[0])
    for fig in ("fig12a", "fig12b"):
        for scheme in ("RAIR_NativeH", "RAIR_ForeignH", "RAIR_DPA"):
            put((fig, scheme), [(fig, scheme), (fig, "RO_RR")], _mean_reduction)
    for scheme in ("RO_Rank", "RA_DBAR", "RA_RAIR"):
        put(("fig14", scheme), [("fig14", scheme), ("fig14", "RO_RR")],
            _mean_reduction)
    for scheme in ("RO_RR", "RO_Rank", "RA_RAIR"):
        put(("fig17", scheme), [("fig17adv", scheme), ("fig17clean", scheme)],
            _mean_slowdown)
    return rows


def shape_agreement(rows: dict) -> tuple[float, list[str]]:
    """(share of the orderings that hold, names of those that do not).

    An ordering over a missing or ``FAILED`` row does not hold.
    """
    broken = []
    for name, keys, holds in ORDERINGS:
        values = [rows.get(k) for k in keys]
        if not all(isinstance(v, float) for v in values) or not holds(*values):
            broken.append(name)
    return (len(ORDERINGS) - len(broken)) / len(ORDERINGS), broken


def report_lines(rows: dict, broken: list[str]) -> list[str]:
    """Our magnitudes beside the paper's, and the orderings that do not hold."""
    lines = []
    for key, paper in PAPER_VALUES.items():
        ours = rows.get(key)
        shown = f"{ours:.4f}" if isinstance(ours, float) else str(ours)
        lines.append(f"fidelity {key[0]} {key[1]}: ours {shown}  paper {paper}")
    lines.append(f"fidelity orderings not holding: {broken or 'none'}")
    return lines
