"""The claim list and its evaluator: verdict rule, dropped seeds, and the
committed ``results/verdicts.json`` / EXPERIMENTS.md block that follow from it."""

import json
import pathlib
import sys

import pytest

from repro.experiments import fidelity, run_all
from repro.experiments.fidelity import Claim, evaluate
from repro.util.errors import ConfigError

ROOT = pathlib.Path(__file__).resolve().parents[2]
GAP = Claim("A > B", "fig14_sixapp", lambda t: t("x", scheme="A") - t("x", scheme="B"), "p")


def _tables(*gaps):
    """One-seed tables whose ``A - B`` gap on column ``x`` is each of ``gaps``;
    a ``str`` gap is a seed on which A's row failed."""
    return [
        [{"scheme": "A", "x": gap if isinstance(gap, str) else 1.0 + gap},
         {"scheme": "B", "x": 1.0}]
        for gap in gaps
    ]


@pytest.mark.parametrize(
    "gaps, verdict, n, dropped",
    [
        ((0.10, 0.12, 0.11), "holds", 3, 0),
        ((-0.10, -0.12, -0.11), "fails", 3, 0),
        ((0.10, -0.12, 0.03), "undecided", 3, 0),
        ((0.10,), "undecided", 1, 0),  # one seed decides nothing
        ((0.10, "FAILED(Deadlock)", 0.12, 0.11), "holds", 3, 1),
        (("FAILED(Deadlock)", "FAILED(baseline Deadlock)"), "undecided", 0, 2),
    ],
)
def test_verdict_rule_and_dropped_seeds(gaps, verdict, n, dropped):
    record = evaluate(GAP, _tables(*gaps))
    assert (record["verdict"], record["n"], record["dropped"]) == (verdict, n, dropped)
    assert (record["margin"] is None) == (n == 0) and (record["ci"] is None) == (n < 2)
    if n:
        kept = [gap for gap in gaps if not isinstance(gap, str)]
        assert record["margin"] == pytest.approx(sum(kept) / n)
    json.dumps(record, allow_nan=False)  # what verdicts.json stores


@pytest.mark.parametrize(
    "margin", [lambda t: t("x", scheme="C"), lambda t: t("y", scheme="A")]
)
def test_a_row_or_column_the_table_lacks_raises_with_the_claim_id(margin):
    with pytest.raises(ConfigError, match="'typo'"):
        evaluate(Claim("typo", "fig14_sixapp", margin, "p"), _tables(0.1, 0.2))


def test_the_list_is_checked_when_it_is_built():
    assert run_all.CLAIMS_OF.keys() <= run_all.EXPERIMENTS.keys()
    assert sum(map(len, run_all.CLAIMS_OF.values())) == len(fidelity.CLAIMS)
    with pytest.raises(ConfigError, match="fig99"):
        fidelity.by_figure([Claim("x", "fig99", GAP.margin, "p")], run_all.EXPERIMENTS)
    with pytest.raises(ConfigError, match="twice"):
        fidelity.by_figure([GAP, GAP], run_all.EXPERIMENTS)


def test_the_ladders_orderings_are_claims_here(monkeypatch):
    """Read-only: guards the two lists until the ladder imports this one."""
    monkeypatch.setattr(sys, "path", [str(ROOT), *sys.path])
    from benchmarks.ladder.fidelity import ORDERINGS

    assert {name for name, _keys, _holds in ORDERINGS} <= {c.id for c in fidelity.CLAIMS}


def test_committed_verdicts_and_experiments_md_follow_the_list():
    verdicts = json.loads((ROOT / "results" / "verdicts.json").read_text(encoding="utf-8"))
    assert set(verdicts) == {claim.id for claim in fidelity.CLAIMS}
    records = [record for runs in verdicts.values() for record in runs.values()]
    assert all(record["dropped"] == 0 and record["n"] == 5 for record in records)

    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    block = text[text.index(fidelity.BEGIN): text.index(fidelity.END) + len(fidelity.END)]
    assert block == fidelity.render_block(verdicts), (
        "regenerate: python -m repro.experiments.fidelity results/verdicts.json "
        "EXPERIMENTS.md"
    )
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    assert [c.id for c in fidelity.CLAIMS if f"`{c.id}`" not in design] == []  # §3 index
    deviations = text[text.index("## Known deviations"):]
    failing = {
        claim_id
        for claim_id, runs in verdicts.items()
        if any(record["verdict"] == "fails" for record in runs.values())
    }
    assert {claim_id for claim_id in failing if claim_id not in deviations} == set()


@pytest.mark.parametrize("verdicts", ["{}", None], ids=["empty", "missing"])
def test_the_block_is_never_rewritten_from_no_verdicts(verdicts, tmp_path, capsys):
    document = tmp_path / "doc.md"
    document.write_text(f"head\n{fidelity.BEGIN}\nold\n{fidelity.END}\ntail\n")
    before = document.read_bytes()
    path = tmp_path / "verdicts.json"
    if verdicts is not None:
        path.write_text(verdicts)
    assert fidelity.main([str(path), str(document)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert document.read_bytes() == before
