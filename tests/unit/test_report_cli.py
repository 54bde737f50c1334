"""Unit tests for report helpers, Effort presets and the run_all registry."""

import argparse

import pytest

from repro.experiments import cellplan, fig09_msp, run_all
from repro.experiments.report import add_common_args, parse_effort
from repro.experiments.run_all import EXPERIMENTS
from repro.experiments.runner import SCHEMES, Effort, FigureResult, Scheme


class TestEffort:
    def test_presets(self):
        assert Effort.FULL.warmup == 10_000
        assert Effort.FULL.measure == 100_000
        assert Effort.FAST.warmup < Effort.MEDIUM.warmup < Effort.FULL.warmup

    def test_parse_effort(self):
        assert parse_effort("fast") is Effort.FAST
        assert parse_effort("FULL") is Effort.FULL
        with pytest.raises(SystemExit):
            parse_effort("warp")

    def test_argparser_defaults(self):
        args = add_common_args(argparse.ArgumentParser()).parse_args([])
        assert args.effort == "medium"
        assert args.seed == 42


class TestBadSharedFlags:
    """A flag value the run would refuse is an argparse error.

    Exit 2 with the refusing check's message, before anything runs or is
    written, on a figure CLI and on ``run_all`` alike.
    """

    BAD = {
        "jobs": (["--jobs", "0"], "at least one job"),
        "max-attempts": (["--max-attempts", "0"], "max_attempts must be >= 1"),
        "timeout": (["--timeout", "0"], "wall_timeout_s must be > 0"),
        "obs-sample-period": (
            ["--obs", "o", "--obs-sample-period", "0"], "sample_period must be >= 1"
        ),
        "effort": (["--effort", "bogus"], "invalid choice: 'bogus'"),
    }

    @pytest.mark.parametrize("flag", sorted(BAD))
    @pytest.mark.parametrize("cli", ["fig09_msp", "run_all"])
    def test_usage_error_before_anything_runs(
        self, cli, flag, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        bad, message = self.BAD[flag]
        argv = ["--effort", "smoke", *bad]
        with pytest.raises(SystemExit) as exit_info:
            if cli == "run_all":
                run_all.main([*argv, "--out", "out"])
            else:
                fig09_msp.main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []  # no --out, --obs or cache dir

    def test_an_unknown_only_name_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_all.main(["--effort", "smoke", "--only", "bogus", "--out", str(tmp_path / "D")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err and "Traceback" not in err
        assert not (tmp_path / "D").exists()


class TestSchemes:
    def test_paper_schemes_present(self):
        for key in ("RO_RR", "RO_Rank", "RA_DBAR", "RA_RAIR",
                    "RAIR_VA", "RAIR_VA+SA", "RAIR_NativeH", "RAIR_ForeignH",
                    "RAIR_DPA", "RO_RR_DBAR", "RAIR_DBAR"):
            assert key in SCHEMES

    def test_scheme_describe(self):
        text = SCHEMES["RA_RAIR"].describe()
        assert "rair" in text and "local" in text

    def test_dbar_schemes_use_dbar_routing(self):
        assert SCHEMES["RA_DBAR"].routing == "dbar"
        assert SCHEMES["RAIR_DBAR"].routing == "dbar"
        assert SCHEMES["RA_RAIR"].routing == "local"

    def test_variants_carry_policy_kwargs(self):
        from repro.core.msp import Stage

        assert SCHEMES["RAIR_VA"].policy_kwargs["stages"] is Stage.VA
        assert SCHEMES["RAIR_NativeH"].policy_kwargs["dpa"].mode == "native"
        assert SCHEMES["RAIR_ForeignH"].policy_kwargs["dpa"].mode == "foreign"

    def test_every_scheme_is_run_by_a_figure(self, monkeypatch):
        """Each figure makes one engine call; record its cells' schemes there
        and stop, so nothing is simulated. (The routing ablation adds keys
        of its own, so the recorded set may be larger.)"""

        class Planned(Exception):
            pass

        keys = set()

        def record(cells, **_engine):
            keys.update(cell.scheme.key for cell in cells)
            raise Planned

        monkeypatch.setattr(cellplan, "run_cells_detailed", record)
        for name, module in EXPERIMENTS.items():
            if name == "table1":  # takes no effort and runs no cell
                continue
            try:
                module.run(effort=Effort.SMOKE)
            except Planned:
                pass
        assert set(SCHEMES) - keys == set()


class TestRunAllRegistry:
    def test_every_figure_registered(self):
        for name in (
            "table1", "intext", "fig09_msp", "fig10_routing", "fig12_dpa",
            "fig14_sixapp", "fig15_patterns", "fig17_parsec",
            "ablation_hysteresis", "ablation_vcsplit", "ablation_routing",
        ):
            assert name in EXPERIMENTS

    def test_registered_modules_have_run_and_main(self):
        for name, module in EXPERIMENTS.items():
            assert callable(getattr(module, "run")), name
            assert callable(getattr(module, "main")), name


class TestFigureResult:
    def test_notes_rendered(self):
        r = FigureResult(
            figure="Fx", title="t", columns=["a"], rows=[{"a": 1}],
            notes=["be careful"],
        )
        assert "note: be careful" in r.format_table()

    def test_missing_cell_renders_empty(self):
        r = FigureResult(figure="F", title="t", columns=["a", "b"], rows=[{"a": 1}])
        assert r.format_table()  # does not raise

    def test_scheme_is_frozen(self):
        s = Scheme("X", "rr", "xy")
        with pytest.raises(AttributeError):
            s.routing = "dbar"
