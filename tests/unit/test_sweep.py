"""Unit tests for seed-replicated sweeps and confidence intervals."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments.runner import SCHEMES, Effort
from repro.experiments.scenarios import two_app_msp
from repro.experiments.sweep import SweepResult, compare_schemes
from repro.util.errors import ConfigError


class TestSweepResult:
    def test_basic_stats(self):
        r = SweepResult("x", [10.0, 12.0, 14.0])
        assert r.n == 3
        assert r.mean == pytest.approx(12.0)
        assert r.std_error == pytest.approx(2.0 / np.sqrt(3))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            SweepResult("x", [])

    def test_ci_contains_mean_and_widens_with_level(self):
        r = SweepResult("x", [10.0, 12.0, 14.0, 16.0])
        lo95, hi95 = r.confidence_interval(0.95)
        lo99, hi99 = r.confidence_interval(0.99)
        assert lo95 < r.mean < hi95
        assert lo99 < lo95 and hi99 > hi95

    def test_single_sample_ci_degenerates(self):
        r = SweepResult("x", [5.0])
        assert r.confidence_interval() == (5.0, 5.0)
        assert np.isnan(r.std_error) and np.isnan(r.half_width())
        # one sample bounds nothing, however far from zero
        assert not r.excludes_zero() and r.verdict() == "undecided"

    def test_level_validated(self):
        r = SweepResult("x", [1.0, 2.0])
        with pytest.raises(ConfigError):
            r.confidence_interval(1.5)

    def test_excludes_zero(self):
        """The one sign rule: where the interval lies relative to zero."""
        for samples, verdict in [
            ([5.0, 5.1, 4.9], "holds"),
            ([-5.0, -5.1, -4.9], "fails"),
            ([-1.0, 1.0, -0.5, 0.5], "undecided"),
        ]:
            stat = SweepResult("x", samples)
            assert stat.verdict() == verdict
            assert stat.excludes_zero() == (verdict != "undecided")


class TestColdStart:
    def test_importing_experiments_leaves_scipy_unloaded(self):
        """Every CLI, worker process and daemon imports ``repro.experiments``;
        scipy is needed by ``confidence_interval`` alone and loads there."""
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        code = (
            "import sys, repro.experiments\n"
            "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
            "from repro.experiments.sweep import SweepResult\n"
            "lo, hi = SweepResult('x', [1.0, 2.0, 3.0]).confidence_interval()\n"
            "assert lo < 2.0 < hi and 'scipy.stats' in sys.modules\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr


class TestCompareSchemes:
    def test_paired_comparison(self):
        fig = compare_schemes(
            two_app_msp(1.0),
            schemes=[SCHEMES["RA_RAIR"]],
            baseline=SCHEMES["RO_RR"],
            seeds=[1, 2],
            effort=Effort.SMOKE,
        )
        row = fig.row_by(scheme="RA_RAIR")
        assert (row["n"], row["dropped"]) == (2, 0)
        assert row["red_avg_ci"] > 0
        assert row["significant"] == (abs(row["red_avg"]) > row["red_avg_ci"])
        assert fig.metrics["cells"] == 4  # baseline and scheme, two seeds each
        assert "Sweep" in fig.format_table()


class TestSweepCli:
    """The sweep CLI takes the common flag block, so it must honour it."""

    def test_obs_flag_leaves_one_stream_per_simulated_cell(self, tmp_path, capsys):
        from repro.experiments import sweep

        obs_dir = tmp_path / "obs"
        code = sweep.main([
            "--effort", "smoke", "--seeds", "1", "--schemes", "RA_RAIR",
            "--obs", str(obs_dir), "--guard", "strict",
        ])
        assert code == 0
        row = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("RA_RAIR"))
        assert row.split()[-1] == "False"  # one seed is never "significant"
        streams = sorted(p.name for p in obs_dir.glob("*.jsonl"))
        assert len(streams) == 2  # the RO_RR baseline and RA_RAIR, one seed
        assert streams[0].startswith("RA_RAIR_") and streams[1].startswith("RO_RR_")

    def test_guard_and_topology_reach_the_engine(self, tmp_path, monkeypatch):
        from repro.experiments import sweep

        seen = {}

        def fake_compare(scenario, **kwargs):
            seen.update(kwargs, scenario=scenario)
            return sweep.FigureResult(
                figure="Sweep", title="t", columns=["scheme"], rows=[]
            )

        monkeypatch.setattr(sweep, "compare_schemes", fake_compare)
        code = sweep.main([
            "--scenario", "parsec_quadrants", "--topology", "ring",
            "--guard", "sample", "--obs", str(tmp_path), "--obs-sample-period", "16",
        ])
        assert code == 0
        assert seen["scenario"].config.topology == "ring"
        assert seen["scenario"].config.num_vnets == 2
        assert seen["guard"].mode == "sample"
        assert seen["obs"].sample_period == 16
        assert "topology" not in seen  # resolved into the scenario config
