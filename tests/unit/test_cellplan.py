"""The shared figure runner: failed-row rendering and the chaos end-to-end."""

import pytest

from repro.experiments.chaos import chaos_cell
from repro.experiments.cellplan import render_row, run_figure
from repro.experiments.parallel import CellFailure, CellResult
from repro.experiments.report import EXIT_CELL_FAILURE, finish
from repro.experiments.runner import SCHEMES, Effort

LABELS = {"scenario": "a", "scheme": "RAIR_DPA"}
VALUES = ("red_app0", "red_avg")
COLUMNS = [*LABELS, *VALUES, "drained"]


def _result(error_type=None) -> CellResult:
    """A synthetic finished cell: a stand-in run, or a failure of that type."""
    if error_type is None:
        return CellResult(cell=None, index=0, run=object())
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


def test_submit_run_takes_the_figure_flag_block(monkeypatch):
    """``submit --service U run X <flags>`` is ``X --service U <flags>``."""
    from repro.experiments import cellplan, fig10_routing
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
