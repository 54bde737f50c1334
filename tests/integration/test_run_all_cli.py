"""CLI tests: run_all with a cheap subset, figure CLIs' argument handling,
and the graceful-degradation contract (partial table + exit code 3)."""

import json

import pytest

from repro.experiments import parallel, run_all, table1
from repro.experiments.report import EXIT_CELL_FAILURE
from repro.util.errors import SimulationError


class TestRunAllCli:
    def test_table1_only(self, tmp_path, capsys):
        run_all.main(["--only", "table1", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert (tmp_path / "table1.txt").exists()
        assert (tmp_path / "summary.txt").exists()
        summary = (tmp_path / "summary.txt").read_text()
        assert "table1" in summary

    def test_unknown_effort_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run_all.main(["--effort", "ludicrous", "--out", str(tmp_path)])

    def test_zero_seeds_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_all.main(["--seeds", "0", "--out", str(tmp_path)])
        assert exit_info.value.code == 2  # argparse's, not a ConfigError traceback
        assert "at least one seed" in capsys.readouterr().err

    def test_seeds_give_verdicts_and_a_warm_rerun_writes_the_same_bytes(
        self, tmp_path, capsys
    ):
        outputs = []
        for out in ("cold", "warm"):
            code = run_all.main([
                "--only", "fig14_sixapp", "--effort", "smoke", "--seeds", "2",
                "--cache", str(tmp_path / "cache"), "--out", str(tmp_path / out),
            ])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        verdict_lines = [x for x in outputs[0].splitlines() if x.startswith("claim fig14 ")]
        assert len(verdict_lines) == len(run_all.CLAIMS_OF["fig14_sixapp"])
        assert all(" (n=2)  [paper: " in line for line in verdict_lines)
        assert verdict_lines == [
            x for x in outputs[1].splitlines() if x.startswith("claim fig14 ")
        ]
        assert "cache_misses=0" in (tmp_path / "warm" / "summary.txt").read_text()
        for name in ("fig14_sixapp.txt", "verdicts.json"):  # no clock in either
            cold, warm = ((tmp_path / out / name).read_bytes() for out in ("cold", "warm"))
            assert cold == warm and b"metrics:" not in cold
        assert set(json.loads(cold)) == {c.id for c in run_all.CLAIMS_OF["fig14_sixapp"]}
        assert b'"200/800"' in cold and b"wall_time" not in cold


class TestFigureCli:
    def test_table1_main_prints(self, capsys):
        table1.main([])
        out = capsys.readouterr().out
        assert "Virtual channels" in out
        assert "128 bits/cycle" in out


class TestGracefulDegradation:
    """Every figure CLI must render the partial table and exit with 3 when
    cells fail. Patching ``compute_cell`` to raise makes *every* cell fail
    in-process, which exercises the full failure-rendering path of each CLI
    in milliseconds per cell.
    """

    FIGURES = sorted(set(run_all.EXPERIMENTS) - {"table1", "intext"})  # those run no cell

    @pytest.fixture
    def failing_cells(self, monkeypatch):
        def boom(cell, policy=None):
            raise SimulationError("every cell fails")

        monkeypatch.setattr(parallel, "compute_cell", boom)

    @pytest.mark.parametrize("name", FIGURES)
    def test_figure_cli_renders_failures_and_exits_3(
        self, name, capsys, failing_cells
    ):
        module = run_all.EXPERIMENTS[name]
        code = module.main(["--effort", "smoke"])
        out = capsys.readouterr().out
        assert code == EXIT_CELL_FAILURE
        assert "FAILED(SimulationError)" in out  # hole rendered, not hidden
        assert "WARNING" in out
        assert "cell(s) failed" in out

    def test_run_all_aggregates_cell_failures(self, tmp_path, capsys, failing_cells):
        code = run_all.main([
            "--only", "fig09_msp", "--effort", "smoke", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_CELL_FAILURE
        assert "FAILED(SimulationError)" in out
        summary = (tmp_path / "summary.txt").read_text()
        assert "FAILED cell(s)" in summary
        assert "failures=" in summary

    def test_run_all_contains_experiment_level_errors(
        self, tmp_path, capsys, monkeypatch
    ):
        def boom(**kwargs):
            raise RuntimeError("experiment module is broken")

        monkeypatch.setattr(run_all.EXPERIMENTS["fig09_msp"], "run", boom)
        code = run_all.main([
            "--only", "fig09_msp", "table1", "--effort", "smoke",
            "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_CELL_FAILURE
        assert "ERROR RuntimeError" in out
        assert "Table 1" in out  # the broken experiment did not stop table1
        summary = (tmp_path / "summary.txt").read_text()
        assert "ERROR RuntimeError" in summary
        assert "errors=1" in summary
