"""The shared figure runner: failed-row rendering, the seed axis, and the chaos end-to-end."""

import pytest

from repro.core.dpa import DpaConfig
from repro.experiments import cellplan
from repro.experiments.chaos import chaos_cell
from repro.experiments.cellplan import render_row, run_figure
from repro.experiments.parallel import Cell, CellFailure, CellResult, ExecutionReport
from repro.experiments.report import EXIT_CELL_FAILURE, finish
from repro.experiments.runner import SCHEMES, Effort, Scheme
from repro.experiments.scenarios import two_app_msp
from repro.util.errors import ConfigError

LABELS = {"scenario": "a", "scheme": "RAIR_DPA"}
VALUES = ("red_app0", "red_avg")
COLUMNS = [*LABELS, *VALUES, "drained"]


def _result(error_type=None, run=None) -> CellResult:
    """A synthetic finished cell: a stand-in run, or a failure of that type."""
    if error_type is None:
        return CellResult(cell=None, index=0, run=run or object())
    failure = CellFailure(error_type, "boom", "", 1, 0.0, retryable=False)
    return CellResult(cell=None, index=0, failure=failure)


def _project(run, ref):
    return {"red_app0": 0.25, "red_avg": 0.5, "drained": True}


@pytest.mark.parametrize(
    "own, ref, label",
    [
        (None, None, None),
        ("DeadlineError", None, "FAILED(DeadlineError)"),
        (None, "Deadlock", "FAILED(baseline Deadlock)"),
        ("DeadlineError", "Deadlock", "FAILED(DeadlineError)"),  # own wins
    ],
)
def test_render_row_failure_rule(own, ref, label):
    row = render_row(LABELS, COLUMNS, _project, _result(own), _result(ref))
    assert {k: row[k] for k in LABELS} == LABELS
    if label is None:
        assert row == {**LABELS, **_project(None, None)}
    else:
        assert [row[c] for c in VALUES] == [label] * len(VALUES)
        assert row["drained"] == ""
        assert list(row) == COLUMNS


def test_row_without_reference_projects_with_none():
    seen = []
    render_row({}, COLUMNS, lambda run, ref: seen.append(ref) or {}, _result())
    assert seen == [None]


def test_failed_reference_cell_end_to_end(capsys):
    """A healthy row whose reference cell failed: partial table, exit 3."""
    scheme = SCHEMES["RO_RR"]
    reference = chaos_cell(scheme, Effort.SMOKE, 1, mode="raise")
    own = chaos_cell(scheme, Effort.SMOKE, 1, mode="ok")
    result = run_figure(
        [({"row": "r0"}, own, reference)],
        lambda run, ref: {"apl": run.apl, "drained": run.drained},
        effort=Effort.SMOKE,
        figure="Chaos",
        title="reference cell fails",
        columns=["row", "apl", "drained"],
    )
    assert result.rows == [
        {"row": "r0", "apl": "FAILED(baseline SimulationError)", "drained": ""}
    ]
    assert result.metrics["failures"] == 1
    assert result.metrics["cells"] == 2
    assert finish(result) == EXIT_CELL_FAILURE
    out = capsys.readouterr().out
    assert "FAILED(baseline SimulationError)" in out and "WARNING" in out


class _Engine:
    """Stands in for ``run_cells_detailed``: records ``(scheme key, seed)`` per
    submitted cell, hands each cell back as its own run, fails the cells named."""

    def __init__(self, monkeypatch, fail=()):
        self.fail = dict(fail)
        monkeypatch.setattr(cellplan, "run_cells_detailed", self)

    def __call__(self, cells, **engine):
        self.submitted = [(cell.scheme.key, cell.seed) for cell in cells]
        results = [_result(self.fail.get(s), run=c) for s, c in zip(self.submitted, cells)]
        return results, ExecutionReport(cells=len(cells), jobs=1)


def _cell(scheme: Scheme) -> Cell:
    return Cell.for_scenario(scheme, two_app_msp(0.5), Effort.SMOKE, 42)


def _seeded_figure(seeds):
    """RO_Rank and RA_RAIR vs RO_RR; a row is its own seed and the gap to its
    reference's seed, which is zero when the two are paired per seed."""
    return run_figure(
        [({"scheme": k}, _cell(SCHEMES[k]), _cell(SCHEMES["RO_RR"])) for k in ("RO_Rank", "RA_RAIR")],
        lambda run, ref: {"seed": float(run.seed), "gap": float(run.seed - ref.seed), "drained": True},
        effort=Effort.SMOKE, figure="F", title="t",
        columns=["scheme", "seed", "gap", "drained"], seeds=seeds,
    )


def test_seed_axis_submission_order_pairing_and_reduction(monkeypatch):
    engine = _Engine(monkeypatch)
    result = _seeded_figure([1, 6, 2])
    assert engine.submitted == [  # once each; reference first; a cell's seeds adjacent
        (key, seed) for key in ("RO_RR", "RO_Rank", "RA_RAIR") for seed in (1, 6, 2)
    ]
    assert result.columns == ["scheme", "seed", "seed_ci", "gap", "gap_ci", "drained", "n", "dropped"]
    row = result.rows[1]
    assert (row["scheme"], row["drained"], row["n"], row["dropped"]) == ("RA_RAIR", True, 3, 0)
    assert (row["gap"], row["gap_ci"]) == (0.0, 0.0)
    assert row["seed"] == 3.0 and row["seed_ci"] == pytest.approx(6.572, abs=1e-3)
    assert [table[1] for table in result.seed_rows] == [  # the one-seed tables, kept
        {"scheme": "RA_RAIR", "seed": float(seed), "gap": 0.0, "drained": True}
        for seed in (1, 6, 2)
    ]
    with pytest.raises(ConfigError, match="seed"):
        _seeded_figure([])


def test_without_seeds_the_table_is_the_one_seed_one(monkeypatch):
    engine = _Engine(monkeypatch)
    result = _seeded_figure(None)
    assert engine.submitted == [("RO_RR", 42), ("RO_Rank", 42), ("RA_RAIR", 42)]
    assert result.columns == ["scheme", "seed", "gap", "drained"] and len(result.notes) == 1
    assert result.rows[0] == {"scheme": "RO_Rank", "seed": 42.0, "gap": 0.0, "drained": True}
    assert result.seed_rows == [result.rows]


@pytest.mark.parametrize(
    "failing, label", [("RA_RAIR", "FAILED(Deadlock)"), ("RO_RR", "FAILED(baseline Deadlock)")]
)
def test_failed_seeds_are_dropped_until_none_is_left(monkeypatch, failing, label):
    _Engine(monkeypatch, fail={(failing, 6): "Deadlock"})
    row = _seeded_figure([1, 6, 2]).rows[1]
    assert (row["n"], row["dropped"], row["seed"]) == (2, 1, 1.5)
    _Engine(monkeypatch, fail={(failing, seed): "Deadlock" for seed in (1, 6)})
    row = _seeded_figure([1, 6]).rows[1]
    assert [row[c] for c in ("seed", "seed_ci", "gap", "gap_ci")] == [label] * 4
    assert (row["scheme"], row["drained"], row["n"], row["dropped"]) == ("RA_RAIR", "", 0, 2)


def test_cells_are_told_apart_by_cache_key_not_equality(monkeypatch):
    """Schemes sharing a key and differing in policy kwargs compare equal
    (``policy_kwargs`` is ``compare=False``) but are different cells."""
    engine = _Engine(monkeypatch)
    gentle, eager = (
        _cell(Scheme("X", "rair", "local", {"dpa": DpaConfig(delta=d)})) for d in (0.1, 0.3)
    )
    assert gentle == eager
    result = run_figure(
        [({"delta": 0.1}, gentle, None), ({"delta": 0.3}, eager, None)],
        lambda run, _ref: {"seen": run.scheme.policy_kwargs["dpa"].delta, "drained": True},
        effort=Effort.SMOKE, figure="F", title="t", columns=["delta", "seen", "drained"],
    )
    assert engine.submitted == [("X", 42), ("X", 42)]
    assert [row["seen"] for row in result.rows] == [0.1, 0.3]


def test_submit_run_takes_the_figure_flag_block(monkeypatch):
    """``submit --service U run X <flags>`` is ``X --service U <flags>``."""
    from repro.experiments import fig10_routing
    from repro.service import submit

    seen = {}

    def fake_run_from_args(run, args) -> int:
        seen.update(run=run, args=args)
        return 0

    monkeypatch.setattr(cellplan, "run_from_args", fake_run_from_args)
    code = submit.main([
        "--service", "http://127.0.0.1:1", "run", "fig10_routing",
        "--effort", "smoke", "--topology", "torus", "--guard", "sample",
        "--cycle-budget", "9", "--priority", "high",
    ])
    assert code == 0
    assert seen["run"] is fig10_routing.run
    args = seen["args"]
    assert args.service == "http://127.0.0.1:1"  # the top-level value survives
    assert (args.topology, args.guard, args.cycle_budget, args.priority) == (
        "torus", "sample", 9, "high",
    )
