"""The shared figure runner: failed-row rendering, the seed axis and its
statistics, and the chaos end-to-end."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.core.dpa import DpaConfig
from repro.experiments import cellplan
from repro.experiments.chaos import chaos_cell
from repro.experiments.cellplan import SweepResult, render_row, run_figure
from repro.experiments.parallel import Cell, CellFailure, CellResult, ExecutionReport
from repro.experiments.report import EXIT_CELL_FAILURE, finish
from repro.experiments.runner import SCHEMES, Effort, FigureResult, Scheme
from repro.experiments.scenarios import two_app_msp
from repro.util.errors import ConfigError

LABELS = {"scenario": "a", "scheme": "RAIR_DPA"}
VALUES = ("red_app0", "red_avg")
COLUMNS = [*LABELS, *VALUES, "drained"]


def _result(error_type=None, run=None) -> CellResult:
    """A synthetic finished cell: a stand-in run, or a failure of that type."""
    if error_type is None:
        return CellResult(cell=None, index=0, run=run or object())
    failure = CellFailure(error_type, "boom", "", 0.0, retryable=False)
    return CellResult(cell=None, index=0, failure=failure)


def _project(run, ref):
    return {"red_app0": 0.25, "red_avg": 0.5, "drained": True}


@pytest.mark.parametrize(
    "own, ref, label",
    [
        (None, None, None),
        ("SimulationError", None, "FAILED(SimulationError)"),
        (None, "Deadlock", "FAILED(baseline Deadlock)"),
        ("SimulationError", "Deadlock", "FAILED(SimulationError)"),  # own wins
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


def test_figure_main_takes_the_flag_block(tmp_path):
    """Every figure CLI hands the common flags to its ``run``: the one way to
    run a figure locally, replicated or through a daemon."""
    seen = {}

    def run(**kwargs):
        seen.update(kwargs)
        return FigureResult(figure="F", title="t", columns=["a"], rows=[])

    assert cellplan.figure_main(run, "doc", [
        "--effort", "smoke", "--seed", "3", "--seeds", "2", "--topology", "torus",
        "--guard", "sample", "--obs", str(tmp_path), "--max-attempts", "9",
        "--service", "http://127.0.0.1:1", "--priority", "high",
    ]) == 0
    assert (seen["effort"], seen["seed"], seen["seeds"], seen["topology"]) == (
        Effort.SMOKE, 3, [3, 4], "torus",
    )
    policy = seen["policy"]
    assert (policy.guard.mode, policy.max_attempts) == ("sample", 9)
    assert policy.guard.dir == policy.obs.dir == str(tmp_path)  # blackboxes beside obs
    assert (seen["service"].url, seen["service"].priority) == ("http://127.0.0.1:1", "high")


class TestSweepResult:
    def test_basic_stats(self):
        r = SweepResult("x", [10.0, 12.0, 14.0])
        assert r.n == 3
        assert r.mean == pytest.approx(12.0)
        assert r.std_error == pytest.approx(2.0 / np.sqrt(3))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            SweepResult("x", [])

    def test_ci_widens_with_level(self):
        r = SweepResult("x", [10.0, 12.0, 14.0, 16.0])
        assert r.half_width(0.99) > r.half_width(0.95) > 0

    def test_single_sample_ci_degenerates(self):
        r = SweepResult("x", [5.0])
        assert np.isnan(r.std_error) and np.isnan(r.half_width())
        assert r.verdict() == "undecided"  # one sample bounds nothing, however far from zero

    def test_level_validated(self):
        with pytest.raises(ConfigError):
            SweepResult("x", [1.0, 2.0]).half_width(1.5)

    def test_verdict(self):
        """The one sign rule: where the interval lies relative to zero."""
        for samples, verdict in [
            ([5.0, 5.1, 4.9], "holds"),
            ([-5.0, -5.1, -4.9], "fails"),
            ([-1.0, 1.0, -0.5, 0.5], "undecided"),
        ]:
            assert SweepResult("x", samples).verdict() == verdict


class TestColdStart:
    def test_a_simulation_process_loads_only_what_it_runs(self, tmp_path):
        """Every CLI, ladder child and worker imports these layers, and most
        of them only simulate. The HTTP client (ssl, email), the worker pool
        (multiprocessing) and the git stamp (subprocess) load where they are
        used, as scipy does in ``half_width``; an obs-armed run's latency
        summary does without ``numpy.ma``. One interpreter checks all."""
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "import repro.experiments, repro.service.client, repro.service.jobstore\n"
            "from repro import build_simulation\n"
            "from repro.experiments.parallel import Cell, run_cells_detailed\n"
            "from repro.experiments.runner import SCHEMES, Effort\n"
            "from repro.experiments.scenarios import two_app_msp\n"
            "from repro.traffic.patterns import UniformPattern\n"
            "from repro.traffic.synthetic import SyntheticTrafficSource\n"
            "cell = Cell.for_scenario(SCHEMES['RA_RAIR'], two_app_msp(0.5), Effort.SMOKE, 42)\n"
            f"[res], _ = run_cells_detailed([cell], jobs=1, cache={str(tmp_path)!r})\n"
            "assert res.ok\n"
            "sim, net = build_simulation()\n"
            "sim.add_traffic(SyntheticTrafficSource(range(64), 0.1, "
            "UniformPattern(net.topology), app_id=0, seed=1))\n"
            "sim.run(300)\n"
            "heavy = ('ssl', 'http.client', 'email', 'multiprocessing', 'subprocess')\n"
            "loaded = sorted(set(heavy) & set(sys.modules))\n"
            "assert not loaded, loaded\n"
            "from repro.experiments.runner import run_scenario\n"
            "from repro.obs import ObsConfig\n"
            "run_scenario(SCHEMES['RA_RAIR'], two_app_msp(0.5), Effort.SMOKE, 42, "
            f"obs=ObsConfig(dir={str(tmp_path / 'obs')!r}))\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
            "assert repro.experiments.SweepResult('x', [1.0, 2.0, 3.0]).half_width() > 0\n"
            "assert 'scipy.stats' in sys.modules\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
