"""Unit tests for the run-metrics counters (RunMetrics + wiring)."""

from __future__ import annotations

import json

from repro import build_simulation
from repro.experiments.runner import FigureResult
from repro.noc.config import NocConfig
from repro.noc.stats import RunMetrics
from repro.traffic.patterns import UniformPattern
from repro.traffic.synthetic import FixedLength, SyntheticTrafficSource


def _small_run(warmup=100, measure=400):
    cfg = NocConfig(width=4, height=4)
    sim, net = build_simulation(cfg, scheme="rr", routing="xy")
    sim.add_traffic(
        SyntheticTrafficSource(
            nodes=range(cfg.num_nodes),
            rate=0.05,
            pattern=UniformPattern(net.topology),
            app_id=0,
            seed=7,
            lengths=FixedLength(1),
        )
    )
    res = sim.run_measurement(warmup=warmup, measure=measure, drain_limit=20_000)
    return sim, res


class TestRunMetricsCounters:
    def test_populated_after_run_measurement(self):
        sim, res = _small_run()
        m = res.metrics
        # The result carries an independent snapshot: later runs on the
        # same simulator must not retroactively mutate an earlier result.
        assert m is not sim.metrics
        assert m == sim.metrics
        assert m.cycles == res.end_cycle
        assert m.wall_time_s > 0.0
        assert m.cycles_per_sec > 0.0
        assert set(m.phase_cycles) == {"warmup", "measure", "drain"}
        assert m.phase_cycles["warmup"] == 100
        assert m.phase_cycles["measure"] == 400
        assert sum(m.phase_cycles.values()) == res.end_cycle
        assert set(m.phase_seconds) == {"warmup", "measure", "drain"}
        assert all(s >= 0.0 for s in m.phase_seconds.values())

    def test_accumulates_across_runs_until_reset(self):
        sim, res1 = _small_run(warmup=50, measure=100)
        before = sim.metrics.phase_cycles["warmup"]
        sim.run_measurement(warmup=50, measure=100, drain_limit=20_000)
        assert sim.metrics.phase_cycles["warmup"] == before + 50

    def test_result_snapshot_unaffected_by_later_runs(self):
        sim, res1 = _small_run(warmup=50, measure=100)
        frozen_cycles = res1.metrics.cycles
        frozen_warmup = res1.metrics.phase_cycles["warmup"]
        res2 = sim.run_measurement(warmup=50, measure=100, drain_limit=20_000)
        assert res1.metrics.cycles == frozen_cycles
        assert res1.metrics.phase_cycles["warmup"] == frozen_warmup
        assert res2.metrics.cycles > res1.metrics.cycles


class TestCyclesPerSecEdgeCases:
    """cycles_per_sec must be 0.0 — never a crash or an absurd rate —
    whenever the run cannot meaningfully be rated."""

    def test_fresh_metrics_rate_is_zero(self):
        assert RunMetrics().cycles_per_sec == 0.0

    def test_cycles_without_wall_time(self):
        # A cache-restored or sub-clock-resolution run: cycles > 0 but a
        # measured wall time of exactly 0.0 must not divide by zero.
        m = RunMetrics(cycles=10_000, wall_time_s=0.0)
        assert m.cycles_per_sec == 0.0

    def test_wall_time_without_cycles(self):
        m = RunMetrics(cycles=0, wall_time_s=2.5)
        assert m.cycles_per_sec == 0.0

    def test_negative_wall_time_is_not_rated(self):
        m = RunMetrics(cycles=100, wall_time_s=-1.0)
        assert m.cycles_per_sec == 0.0

    def test_non_finite_wall_time_is_not_rated(self):
        for bad in (float("inf"), float("nan")):
            m = RunMetrics(cycles=100, wall_time_s=bad)
            assert m.cycles_per_sec == 0.0

    def test_normal_rate(self):
        m = RunMetrics(cycles=500, wall_time_s=2.0)
        assert m.cycles_per_sec == 250.0


class TestObsCounters:
    """obs_samples / obs_events ride along with the other counters."""

    def test_snapshot_copies_obs_counters(self):
        m = RunMetrics(obs_samples=7, obs_events=42)
        snap = m.snapshot()
        m.obs_samples = 0
        m.obs_events = 0
        assert snap.obs_samples == 7 and snap.obs_events == 42

    def test_populated_by_an_obs_enabled_run(self):
        from repro.obs import MetricsCollector, ObsConfig

        cfg = NocConfig(width=4, height=4)
        sim, net = build_simulation(cfg, scheme="rr", routing="xy")
        sim.add_traffic(
            SyntheticTrafficSource(
                nodes=range(cfg.num_nodes),
                rate=0.05,
                pattern=UniformPattern(net.topology),
                app_id=0,
                seed=7,
                lengths=FixedLength(1),
            )
        )
        collector = MetricsCollector(ObsConfig(dir=None, sample_period=32), "run")
        collector.install(sim)
        res = sim.run_measurement(warmup=100, measure=400, drain_limit=20_000)
        assert res.metrics.obs_samples == collector.samples_taken > 0
        assert res.obs is not None
        assert res.obs.samples == res.metrics.obs_samples
        # events = DPA flips + every measured packet classified at finalize
        measured = net.stats.packet_count(window=res.window)
        assert res.metrics.obs_events == res.obs.events == res.obs.dpa_flips + measured > 0


class TestFigureResultMetricsOutput:
    def test_metrics_rendered_and_serialized(self):
        fig = FigureResult(
            figure="F",
            title="t",
            columns=["a"],
            rows=[{"a": 1.0}],
            metrics={"cells": 4, "cache_hits": 3, "wall_time_s": 1.25},
        )
        text = fig.format_table()
        assert "metrics:" in text
        assert "cache_hits=3" in text
        blob = json.dumps(fig.to_json_dict())
        assert json.loads(blob)["metrics"]["cells"] == 4

    def test_no_metrics_line_when_empty(self):
        fig = FigureResult(figure="F", title="t", columns=["a"], rows=[{"a": 1}])
        assert "metrics:" not in fig.format_table()
