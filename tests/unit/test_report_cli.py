"""Unit tests for report helpers, Effort presets and the run_all registry."""

import argparse

import pytest

from repro.experiments.report import add_common_args, parse_effort, pct
from repro.experiments.run_all import EXPERIMENTS
from repro.experiments.runner import SCHEMES, Effort, FigureResult, Scheme


class TestPct:
    def test_signs(self):
        assert pct(0.128) == "+12.8%"
        assert pct(-0.034) == "-3.4%"
        assert pct(0.0) == "+0.0%"


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


class TestRunAllRegistry:
    def test_every_figure_registered(self):
        for name in (
            "table1", "fig09_msp", "fig10_routing", "fig12_dpa",
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
