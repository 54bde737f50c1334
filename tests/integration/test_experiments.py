"""Integration tests for the experiment harness (smoke-scale runs)."""

import dataclasses
import math

import pytest

from repro.core.dpa import DpaConfig
from repro.experiments import (
    Effort,
    SCHEMES,
    run_scenario,
    saturation_load,
)
from repro.experiments import (
    fig09_msp,
    fig10_routing,
    fig12_dpa,
    fig14_sixapp,
    fig15_patterns,
    fig17_parsec,
)
from repro.experiments.calibrate import probe_apl
from repro.experiments.scenarios import (
    four_app_dpa,
    parsec_quadrants,
    six_app,
    two_app_msp,
)
from repro.experiments import parallel
from repro.obs import ObsConfig, load_jsonl, validate_stream
from repro.util.errors import ConfigError, SimulationError


class TestSaturationTable:
    def test_known_keys_resolve(self):
        assert 0 < saturation_load("ur_chip_8x8") < 1

    def test_unknown_key_raises_helpfully(self):
        with pytest.raises(ConfigError, match="calibrate"):
            saturation_load("ur_moon_base")


class TestScenarios:
    def test_two_app_layout(self):
        s = two_app_msp(0.4)
        assert s.region_map.num_apps == 2
        sources = s.traffic_factory(7)
        assert len(sources) == 2
        assert sources[0].inter_fraction == pytest.approx(0.4)
        assert sources[1].intra_fraction == 1.0

    def test_two_app_rates_track_saturation(self):
        low, high = two_app_msp(0.0).traffic_factory(7)
        sat = saturation_load("ur_half_4x8")
        assert low.rate == pytest.approx(0.10 * sat)
        # High app runs at 0.80 of the solo knee (in-context calibration,
        # see the scenario docstring).
        assert high.rate == pytest.approx(0.80 * sat)

    def test_four_app_variants(self):
        for variant in ("a", "b"):
            s = four_app_dpa(variant)
            sources = s.traffic_factory(3)
            assert len(sources) == 4
        with pytest.raises(ValueError):
            four_app_dpa("c")

    def test_four_app_a_routes_inter_traffic_to_app3(self):
        s = four_app_dpa("a")
        src0 = s.traffic_factory(3)[0]
        rm = s.region_map
        import numpy as np

        rng = np.random.default_rng(0)
        dsts = {src0._inter(rng, rm.nodes_of(0)[0]) for _ in range(60)}
        assert dsts <= set(rm.nodes_of(3))

    def test_six_app_load_mix(self):
        s = six_app()
        sources = s.traffic_factory(3)
        assert len(sources) == 6
        for src in sources:
            assert src.intra_fraction == pytest.approx(0.75)
            assert src.inter_fraction == pytest.approx(0.20)
            assert src.mc_fraction == pytest.approx(0.05)
        # high-load apps offered more than low-load ones
        assert sources[1].rate > sources[0].rate

    def test_six_app_patterns(self):
        for pattern in ("ur", "tp", "bc", "hs"):
            s = six_app(global_pattern=pattern)
            assert s.name.endswith(pattern)
            s.traffic_factory(1)

    def test_parsec_scenario_uses_two_vnets(self):
        s = parsec_quadrants()
        assert s.config.num_vnets == 2
        assert len(s.traffic_factory(1)) == 1
        s_adv = parsec_quadrants(adversarial=True)
        assert len(s_adv.traffic_factory(1)) == 2


class TestRunScenario:
    def test_basic_run(self):
        res = run_scenario(SCHEMES["RO_RR"], two_app_msp(0.5), effort=Effort.SMOKE)
        assert res.drained
        assert set(res.per_app_apl) == {0, 1}
        assert res.packets_measured > 50
        assert not math.isnan(res.apl)

    def test_reduction_vs(self):
        scenario = two_app_msp(1.0)
        base = run_scenario(SCHEMES["RO_RR"], scenario, effort=Effort.SMOKE)
        rair = run_scenario(SCHEMES["RA_RAIR"], scenario, effort=Effort.SMOKE)
        red = rair.reduction_vs(base, app=0)
        assert -1.0 < red < 1.0

    def test_each_run_writes_its_own_stream(self, tmp_path):
        # Runs that differ only in DPA delta, or only in effort, share
        # scheme key, scenario name and seed; each still gets its own file.
        obs = ObsConfig(dir=str(tmp_path))
        scenario = two_app_msp(1.0)
        rair = SCHEMES["RA_RAIR"]
        deltas = [
            dataclasses.replace(rair, policy_kwargs={"dpa": DpaConfig(delta=delta)})
            for delta in (0.1, 0.3)
        ]
        runs = [run_scenario(s, scenario, Effort.SMOKE, obs=obs) for s in deltas]
        runs += [
            run_scenario(rair, scenario, effort, obs=obs)
            for effort in (Effort.SMOKE, Effort.FAST)
        ]
        paths = {run.obs.jsonl_path for run in runs}
        assert len(paths) == len(list(tmp_path.glob("*.jsonl"))) == 4
        for run in runs:
            records = load_jsonl(run.obs.jsonl_path)
            validate_stream(records)
            summary = records[-1]
            assert (summary["cycle"], summary["samples"], summary["events"]) == (
                run.obs.end_cycle, run.obs.samples, run.obs.events
            )
            assert summary["dpa_flips"] == run.obs.dpa_flips
            assert summary["link_util"] == run.obs.link_util


class TestFigureModules:
    """The axis arguments the golden cases leave at their defaults (they pin
    everything else with full-table equality). A patched ``compute_cell``
    fails every cell at once; a failed row keeps its label columns."""

    @pytest.fixture(autouse=True)
    def _fail_every_cell(self, monkeypatch):
        def boom(cell, policy=None):
            raise SimulationError("every cell fails")

        monkeypatch.setattr(parallel, "compute_cell", boom)

    @staticmethod
    def _run(module, **axes):
        result = module.run(effort=Effort.SMOKE, **axes)
        assert "FAILED(SimulationError)" in result.format_table()
        return result

    def _schemes_of(self, module, schemes, **axes):
        return [row["scheme"] for row in self._run(module, schemes=schemes, **axes).rows]

    def test_fig09_smoke(self):
        schemes = ("RO_RR", "RAIR_VA+SA")
        assert self._schemes_of(fig09_msp, schemes, p_values=(1.0,)) == list(schemes)

    def test_fig10_smoke(self):
        schemes = ("RO_RR_Local", "RAIR_DBAR")
        assert self._schemes_of(fig10_routing, schemes, p_values=(1.0,)) == list(schemes)

    def test_fig12_smoke(self):
        assert self._schemes_of(fig12_dpa, ("RAIR_DPA",), variants=("a",)) == ["RAIR_DPA"]

    def test_fig14_smoke(self):
        assert self._schemes_of(fig14_sixapp, ("RA_RAIR",), global_pattern="hs") == ["RA_RAIR"]
        assert self._run(fig14_sixapp, global_pattern="hs").title.endswith("pattern HS")

    def test_fig15_smoke(self):
        assert self._schemes_of(fig15_patterns, ("RA_RAIR",), patterns=("tp",)) == ["RA_RAIR"]

    def test_fig17_smoke(self):
        title = self._run(fig17_parsec, schemes=("RO_RR",), adversarial_rate=0.1 + 0.2).title
        assert "under 0.300 flits" in title  # three decimals, not 0.30000000000000004


class TestFigureResultFormatting:
    def test_format_handles_floats_and_strings(self):
        from repro.experiments.runner import FigureResult

        r = FigureResult(
            figure="F", title="t", columns=["a", "b"], rows=[{"a": 1.23456, "b": "x"}]
        )
        text = r.format_table()
        assert "1.235" in text and "x" in text


class TestCalibrationHelpers:
    def test_probe_apl_runs(self):
        from repro.experiments.calibrate import _chip_ur
        from repro.noc.topology import MeshTopology

        make, rm = _chip_ur(MeshTopology(8, 8))
        apl, drained = probe_apl(make, 0.05, region_map=rm, warmup=100, measure=300)
        assert drained and 10 < apl < 100
