"""The paper's claims, written once, and the one rule that judges them.

Each :class:`Claim` in :data:`CLAIMS` names the experiment whose table
decides it (a key of ``run_all.EXPERIMENTS``), a **margin** — a function
of a *one-seed* table, positive where the claim holds — and the paper's
value, printed beside ours. An ordering's margin is a difference, a
sign's is the value, "within x of the best" is ``x - gap`` with ``x`` the
paper's number (:data:`APP1_COST`, :data:`DPA_SLACK`), never a slack
tuned until green. A number the paper states is matched within its own
rounding (:data:`LBDR_ROUNDING`); its experiment runs no seed-dependent
cell, so every seed's margin is the same and the verdict is exact.

:func:`evaluate` takes the margin **per seed** (``FigureResult.seed_rows``:
own and reference paired on the same seed) and reduces the sample through
:meth:`~repro.experiments.cellplan.SweepResult.verdict` to **holds** /
**fails** / **undecided**. ``run_all --seeds N`` is the one evaluator
(verdict lines, ``<out>/verdicts.json``); ``python -m
repro.experiments.fidelity results/verdicts.json EXPERIMENTS.md``
re-renders that document's block between :data:`BEGIN` and :data:`END`.
``benchmarks/ladder/fidelity.ORDERINGS`` is an older copy of eleven of
these ids, which the speed benchmark pins byte for byte.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.experiments.ablation_hysteresis import DELTAS
from repro.experiments.ablation_routing import ROUTINGS
from repro.experiments.ablation_vcsplit import SPLITS
from repro.experiments.cellplan import SweepResult
from repro.experiments.fig15_patterns import PATTERNS
from repro.experiments.fig17_parsec import FIG17_SCHEMES
from repro.experiments.intext import PAPER_LBDR
from repro.util.errors import ConfigError
from repro.util.jsonl import write_text_atomic

__all__ = [
    "Claim", "CLAIMS", "Table", "by_figure", "evaluate", "shown", "render_block", "main",
]

#: Fig. 9: RAIR costs the high-load, intra-region App1 "< 3 %"
APP1_COST = 0.03
#: Fig. 12: "DPA matches the better static priority" (the ladder's tolerance;
#: the paper's two averages are 0.6 points apart)
DPA_SLACK = 0.03
#: §III.B's "14 %" is rounded to a whole percent
LBDR_ROUNDING = 0.005

BEGIN = "<!-- verdicts:begin (generated: python -m repro.experiments.fidelity) -->"
END = "<!-- verdicts:end -->"


class _SeedDropped(Exception):
    """A row the margin needs reads ``FAILED(...)`` on this seed."""


class Table:
    """One seed's rows of one figure, read by value column and row labels.
    A ``FAILED(...)`` value drops the seed; a row or column the table never
    had is a ``KeyError`` (:func:`evaluate` names the claim)."""

    def __init__(self, rows: list[dict]) -> None:
        self.rows = rows

    def __call__(self, column: str, **labels) -> float:
        for row in self.rows:
            if all(row.get(key) == value for key, value in labels.items()):
                if isinstance(row[column], str):
                    raise _SeedDropped(row[column])
                return row[column]
        raise KeyError(f"no row {labels}")


Margin = Callable[[Table], float]


@dataclass(frozen=True)
class Claim:
    """One statement of the paper that one experiment's table decides."""

    id: str
    figure: str  # a key of run_all.EXPERIMENTS
    margin: Margin  # positive on a one-seed table where the claim holds
    paper: str  # the paper's value, printed beside ours


def _cut(scheme: str, versus: str, app: int = 0, slack: float = 0.0) -> Margin:
    """Figs. 9/10 at p = 100 %: ``scheme``'s relative APL cut below ``versus``."""
    column, p = f"apl_app{app}", "100%"
    return lambda t: slack + 1 - (
        t(column, p_inter=p, scheme=scheme) / t(column, p_inter=p, scheme=versus)
    )


def _ranking(name: str, figure: str, column: str, paper: dict) -> list[Claim]:
    """Every pairwise ordering of the paper's ranking (scheme -> value, best first)."""
    return [
        Claim(f"{name} {hi} > {lo}", figure,
              lambda t, hi=hi, lo=lo: t(column, scheme=hi) - t(column, scheme=lo),
              f"{paper[hi]} vs {paper[lo]}")
        for hi, lo in itertools.combinations(paper, 2)
    ]


def _apps(t: Table, scheme: str, apps=(0, 2, 3, 4)) -> float:
    """Fig. 14: mean reduction over ``apps`` (default: the low/medium-load four)."""
    return sum(t(f"red_app{app}", scheme=scheme) for app in apps) / len(apps)


def _patterns(t: Table, scheme: str) -> float:
    """Fig. 15: ``red_avg`` averaged over the global patterns."""
    reds = [t("red_avg", pattern=p.upper(), scheme=scheme) for p in PATTERNS]
    return sum(reds) / len(reds)


def _fig12(variant: str, right: str, wrong: str) -> list[Claim]:
    """Fig. 12, one scenario: the static priority that wins, and DPA against both."""

    def red(t: Table, scheme: str) -> float:
        return t("red_avg", scenario=variant, scheme=f"RAIR_{scheme}")

    fig, name = "fig12_dpa", f"fig12{variant}"
    return [
        Claim(f"{name} {right} > {wrong}", fig,
              lambda t: red(t, right) - red(t, wrong), f"{right} wins ({variant})"),
        Claim(f"{name} DPA near best", fig,
              lambda t: DPA_SLACK - (max(red(t, right), red(t, wrong)) - red(t, "DPA")),
              "DPA ~ the better static (-12.8 % / -12.2 %)"),
        Claim(f"{name} DPA > {wrong}", fig,
              lambda t: red(t, "DPA") - red(t, wrong), "DPA beats the wrong static"),
    ]


_SPLITS = [label for label, _classes in SPLITS]
_OTHERS = ("RO_RR_Local", "RAIR_Local", "RO_RR_DBAR")

CLAIMS: tuple[Claim, ...] = (
    # §III.B — in-text: the mappings LBDR admits
    Claim("III.B LBDR admits 14%", "intext",
          lambda t: LBDR_ROUNDING - abs(t("ours") - PAPER_LBDR), "≈ 14 % of mappings"),
    # Fig. 9 — multi-stage prioritization (two apps; p = 100 % unless said)
    Claim("fig09 APL grows with p", "fig09_msp",
          lambda t: t("apl_app0", p_inter="100%", scheme="RO_RR")
          / t("apl_app0", p_inter="0%", scheme="RO_RR") - 1,
          "all APLs rise with p"),
    Claim("fig09 VA+SA < VA", "fig09_msp",
          _cut("RAIR_VA+SA", "RAIR_VA"), "VA+SA beats VA-only"),
    Claim("fig09 VA < RO_RR", "fig09_msp", _cut("RAIR_VA", "RO_RR"), "VA-only helps"),
    Claim("fig09 VA+SA < RO_RR", "fig09_msp",
          _cut("RAIR_VA+SA", "RO_RR"), "App0 -18.9 %"),
    Claim("fig09 App1 cost < 3%", "fig09_msp",
          _cut("RAIR_VA+SA", "RO_RR", app=1, slack=APP1_COST), "App1 < +3 %"),
    # Fig. 10 — RAIR composed with adaptive routing
    Claim("fig10 RAIR_Local < RO_RR_Local", "fig10_routing",
          _cut("RAIR_Local", "RO_RR_Local"), "RAIR beats RR under local-adaptive"),
    Claim("fig10 RAIR_DBAR < RO_RR_DBAR", "fig10_routing",
          _cut("RAIR_DBAR", "RO_RR_DBAR"), "App0 -12.8 %"),
    Claim("fig10 RAIR_DBAR best on App0", "fig10_routing",
          lambda t: min(_cut("RAIR_DBAR", other)(t) for other in _OTHERS),
          "App0 -24.8 % vs RO_RR_Local"),
    Claim("fig10 App1 recovered", "fig10_routing",
          _cut("RAIR_DBAR", "RO_RR_Local", app=1), "App1 -3.3 % vs RO_RR_Local"),
    # Fig. 12 — dynamic priority adaptation
    *_fig12("a", right="ForeignH", wrong="NativeH"),
    Claim("fig12a DPA > 0", "fig12_dpa",
          lambda t: t("red_avg", scenario="a", scheme="RAIR_DPA"), "-12.8 % average"),
    *_fig12("b", right="NativeH", wrong="ForeignH"),
    # Fig. 14 — six applications, UR global traffic
    Claim("fig14 RA_RAIR > 0", "fig14_sixapp",
          lambda t: t("red_avg", scheme="RA_RAIR"), "-10.1 % average"),
    *_ranking("fig14", "fig14_sixapp", "red_avg",
              {"RA_RAIR": "-10.1 %", "RO_Rank": "-5.8 %", "RA_DBAR": "-3.4 %"}),
    Claim("fig14 low apps RA_RAIR > RO_Rank", "fig14_sixapp",
          lambda t: _apps(t, "RA_RAIR") - _apps(t, "RO_Rank"),
          "gain concentrates on the low/medium-load apps"),
    Claim("fig14 low apps RA_RAIR > RA_DBAR", "fig14_sixapp",
          lambda t: _apps(t, "RA_RAIR") - _apps(t, "RA_DBAR"), "+12.4 % beyond DBAR"),
    Claim("fig14 RA_RAIR low apps > high apps", "fig14_sixapp",
          lambda t: _apps(t, "RA_RAIR") - _apps(t, "RA_RAIR", apps=(1, 5)),
          "low/medium apps gain, high apps pay ~1.3 %"),
    # Fig. 15 — global traffic patterns
    Claim("fig15 RA_RAIR > 0 on every pattern", "fig15_patterns",
          lambda t: min(t("red_avg", pattern=p.upper(), scheme="RA_RAIR") for p in PATTERNS),
          "positive on UR/TP/BC/HS, -13.4 % average"),
    Claim("fig15 RA_RAIR > RO_Rank", "fig15_patterns",
          lambda t: _patterns(t, "RA_RAIR") - _patterns(t, "RO_Rank"),
          "best averaged over patterns"),
    Claim("fig15 RA_RAIR > RA_DBAR", "fig15_patterns",
          lambda t: _patterns(t, "RA_RAIR") - _patterns(t, "RA_DBAR"),
          "best averaged over patterns"),
    # Fig. 17 — PARSEC-like tenants under an adversarial flood (slowdown factors)
    Claim("fig17 every scheme slows down", "fig17_parsec",
          lambda t: min(t("slow_avg", scheme=s) for s in FIG17_SCHEMES) - 1,
          "smallest slowdown 1.18"),
    *_ranking("fig17", "fig17_parsec", "slow_avg",
              {"RO_RR": 1.92, "RA_DBAR": 1.75, "RO_Rank": 1.47, "RA_RAIR": 1.18}),
    # Ablations — the paper's in-text statements (Sections IV.C, VI, IV.D)
    Claim("A1 delta 0.1-0.3 > 0", "ablation_hysteresis",
          lambda t: min(t("red_avg", delta=d) for d in (0.1, 0.2, 0.3)),
          "deltas 0.1-0.3 keep RAIR effective"),
    Claim("A1 delta 0.2 best", "ablation_hysteresis",
          lambda t: t("red_avg", delta=0.2)
          - max(t("red_avg", delta=d) for d in DELTAS if d != 0.2),
          "best case at around 0.2"),
    Claim("A2 every split > 0", "ablation_vcsplit",
          lambda t: min(t("red_avg", split=s) for s in _SPLITS),
          "every split keeps RAIR beneficial"),
    Claim("A2 even split best", "ablation_vcsplit",
          lambda t: t("red_avg", split="2G:2R")
          - max(t("red_avg", split=s) for s in _SPLITS if s != "2G:2R"),
          "a roughly even split suits generic traffic"),
    Claim("A3 App0 gains under every routing", "ablation_routing",
          lambda t: min(t("red_app0", routing=r) for r in ROUTINGS),
          "RAIR composes with any deadlock-free routing"),
    Claim("A3 App1 cost < 3%", "ablation_routing",
          lambda t: APP1_COST + min(t("red_app1", routing=r) for r in ROUTINGS),
          "App1 < +3 % (Fig. 9's bound, same scenario)"),
)


def by_figure(claims: Iterable[Claim], figures) -> dict[str, list[Claim]]:
    """``claims`` grouped by deciding experiment; one on an experiment not in
    ``figures``, or a repeated id, is a :class:`ConfigError` here — when the
    list is built, not after a sweep has run."""
    grouped: dict[str, list[Claim]] = {}
    seen: set[str] = set()
    for claim in claims:
        if claim.figure not in figures:
            raise ConfigError(f"claim {claim.id!r}: unknown experiment {claim.figure!r}")
        if claim.id in seen:
            raise ConfigError(f"claim id {claim.id!r} is listed twice")
        seen.add(claim.id)
        grouped.setdefault(claim.figure, []).append(claim)
    return grouped


def evaluate(claim: Claim, seed_rows: list[list[dict]]) -> dict:
    """``claim`` over one-seed tables: ``verdict``, mean ``margin``, its 95 %
    half-width ``ci`` (``None`` where there is none), ``n``, ``dropped``, ``paper``."""
    margins, dropped = [], 0
    for rows in seed_rows:
        try:
            margins.append(claim.margin(Table(rows)))
        except _SeedDropped:
            dropped += 1
        except KeyError as exc:
            raise ConfigError(
                f"claim {claim.id!r} reads what {claim.figure}'s table lacks: {exc}"
            ) from exc
    stat = SweepResult(claim.id, margins) if margins else None
    return {
        "verdict": stat.verdict() if stat else "undecided",
        "margin": stat.mean if stat else None,
        "ci": stat.half_width() if len(margins) > 1 else None,
        "n": len(margins),
        "dropped": dropped,
        "paper": claim.paper,
    }


def shown(record: dict, bold: str = "") -> str:
    """``verdict margin ± ci (n=N[, D dropped])`` of one :func:`evaluate` record."""
    text = f"{bold}{record['verdict']}{bold}"
    if record["margin"] is not None:
        text += f" {record['margin']:+.3g}"
    if record["ci"] is not None:
        text += f" ± {record['ci']:.3g}"
    lost = f", {record['dropped']} dropped" if record["dropped"] else ""
    return f"{text} (n={record['n']}{lost})"


def render_block(verdicts: dict) -> str:
    """EXPERIMENTS.md's verdict table from a ``verdicts.json`` mapping (claim
    id -> window -> record): claims in :data:`CLAIMS` order, a column per window."""
    windows = sorted(
        {window for runs in verdicts.values() for window in runs},
        key=lambda window: int(window.split("/")[1]),
    )
    lines = [
        BEGIN,
        "| claim | paper | " + " | ".join(f"windows {w}" for w in windows) + " |",
        "|---|---|" + "---|" * len(windows),
    ]
    runs = set()
    for claim in CLAIMS:
        records = [verdicts.get(claim.id, {}).get(window) for window in windows]
        cells = ["—" if record is None else shown(record, "**") for record in records]
        lines.append(f"| {claim.id} | {claim.paper} | " + " | ".join(cells) + " |")
        runs |= {
            f"* windows {window}: seeds {record['seeds']}, git {record['rev']}"
            for window, record in zip(windows, records)
            if record is not None
        }
    return "\n".join([*lines, "", *sorted(runs), END])


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.fidelity VERDICTS.json DOCUMENT.md

    Rewrite DOCUMENT.md's block between the verdict markers from VERDICTS.json.
    A VERDICTS.json that is missing, unreadable or empty exits 2 and leaves
    DOCUMENT.md as it was.
    """
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("verdicts", type=pathlib.Path)
    parser.add_argument("document", type=pathlib.Path)
    args = parser.parse_args(argv)
    head, begin, rest = args.document.read_text(encoding="utf-8").partition(BEGIN)
    _stale, end, tail = rest.partition(END)
    if not (begin and end):
        raise SystemExit(f"{args.document}: no verdict markers")
    try:
        verdicts = json.loads(args.verdicts.read_text(encoding="utf-8"))
        if not verdicts:
            raise ValueError("it holds none")
    except (OSError, ValueError) as exc:
        print(f"{args.verdicts}: no verdicts ({exc}); {args.document} is unchanged",
              file=sys.stderr)
        return 2
    write_text_atomic(args.document, head + render_block(verdicts) + tail)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
