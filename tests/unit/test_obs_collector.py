"""Unit tests for the metrics collector (repro.obs.collector)."""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro import RegionMap, build_simulation
from repro.noc.config import NocConfig
from repro.noc.topology import MeshTopology
from repro.noc.trace import RecordingTrace
from repro.noc.stats import latency_summary
from repro.obs.collector import MetricsCollector, ObsConfig
from repro.obs.exporters import dumps_record, sanitize_name
from repro.obs.schema import SCHEMA_VERSION, load_jsonl, validate_stream
from repro.traffic.regional import RegionalAppTraffic
from repro.util.errors import ConfigError


def _rair_sim(width=6, height=6):
    cfg = NocConfig(width=width, height=height)
    rm = RegionMap.halves(MeshTopology(width, height))
    sim, net = build_simulation(cfg, region_map=rm, scheme="rair", routing="local")
    for app, rate in ((0, 0.05), (1, 0.25)):
        sim.add_traffic(
            RegionalAppTraffic(rm, app, rate=rate, seed=app + 1,
                               intra_fraction=0.6, inter_fraction=0.4,
                               mc_fraction=0.0)
        )
    return sim, net


class TestSanitizeName:
    def test_passthrough_and_collapse(self):
        assert sanitize_name("RA_RAIR_two-app.s42") == "RA_RAIR_two-app.s42"
        assert sanitize_name("a b/c\\d:e") == "a-b-c-d-e"
        assert sanitize_name("///") == "run"
        assert sanitize_name("-x-") == "x"


class TestObsConfig:
    def test_sample_period_must_be_positive(self):
        with pytest.raises(ConfigError, match="sample_period"):
            ObsConfig(dir=None, sample_period=0)

    def test_frozen_and_picklable(self):
        import pickle

        cfg = ObsConfig(dir="d", sample_period=32)
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        with pytest.raises(Exception):
            cfg.sample_period = 1


class TestInstall:
    def test_claims_trace_and_obs_slots(self):
        sim, net = _rair_sim()
        col = MetricsCollector(ObsConfig(dir=None), "t").install(sim)
        assert net.trace is col
        assert sim.obs is col
        assert col.next_sample == col.config.sample_period

    def test_refuses_occupied_trace_slot(self):
        cfg = NocConfig(width=4, height=4)
        sim, _ = build_simulation(cfg, scheme="rr", trace=RecordingTrace())
        with pytest.raises(ConfigError, match="already has a trace"):
            MetricsCollector(ObsConfig(dir=None), "t").install(sim)

    def test_refuses_double_install(self):
        sim1, _ = _rair_sim()
        sim2, _ = _rair_sim()
        col = MetricsCollector(ObsConfig(dir=None), "t").install(sim1)
        with pytest.raises(ConfigError, match="already installed"):
            col.install(sim2)

    def test_finalize_before_install_fails(self):
        with pytest.raises(ConfigError, match="never installed"):
            MetricsCollector(ObsConfig(dir=None), "t").finalize(0)


class TestCollectedStream:
    def _run(self, obs_dir=None, period=50):
        sim, net = _rair_sim()
        col = MetricsCollector(
            ObsConfig(dir=obs_dir, sample_period=period), "t"
        ).install(sim)
        res = sim.run_measurement(warmup=100, measure=400, drain_limit=20_000)
        return sim, col, res

    def test_sampling_cadence_and_counts(self):
        _sim, col, res = self._run(period=50)
        # One sample per period boundary over warmup+measure+drain.
        assert col.samples_taken == res.end_cycle // 50
        assert res.obs.samples == col.samples_taken
        assert res.obs.sample_period == 50
        assert res.obs.end_cycle == res.end_cycle

    def test_in_memory_mode_keeps_only_the_summary(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _sim, col, res = self._run()
        assert col._spool is None
        assert res.obs.jsonl_path is None
        assert os.listdir(tmp_path) == []
        assert res.obs.dpa_flips == sum(res.obs.dpa_flips_by_node.values())
        assert res.obs.latency["native"]["count"] > 0
        assert res.obs.latency["foreign"]["count"] > 0
        # The same digest as a run that writes its stream.
        sim, _col, streamed = self._run(obs_dir=str(tmp_path / "obs"))
        sim.close()
        assert res.obs == streamed.obs

    def test_jsonl_file_written_and_valid(self, tmp_path):
        sim, col, res = self._run(obs_dir=str(tmp_path))
        sim.close()
        path = tmp_path / "t.jsonl"
        assert res.obs.jsonl_path == str(path)
        records = load_jsonl(path)
        counts = validate_stream(records)
        assert counts["latency_class"] == 3
        assert counts["vc_sample"] == counts["link_sample"] == res.obs.samples
        # Canonical encoding: byte-for-byte reproducible lines.
        first = path.read_text().splitlines()[0]
        assert first == dumps_record(records[0])
        assert ": " not in first and ", " not in first

    def test_finalize_is_idempotent(self):
        _sim, col, res = self._run()
        again = col.finalize(res.end_cycle)
        assert again == res.obs

    def test_jsonl_path_not_compared(self):
        _sim, _col, res = self._run()
        assert replace(res.obs, jsonl_path="/somewhere/else.jsonl") == res.obs

    def test_collection_does_not_perturb_simulation(self):
        sim_plain, net_plain = _rair_sim()
        res_plain = sim_plain.run_measurement(
            warmup=100, measure=400, drain_limit=20_000
        )
        sim_obs, _col, res_obs = self._run()
        assert res_obs.end_cycle == res_plain.end_cycle
        assert res_obs.drained == res_plain.drained
        assert res_obs.undrained_packets == res_plain.undrained_packets
        assert sim_obs.network.flits_moved == net_plain.flits_moved
        assert (
            sim_obs.network.stats.packets_ejected == net_plain.stats.packets_ejected
        )


class _Boom(Exception):
    pass


class _RaiseAt:
    """A traffic source that raises at one cycle."""

    def __init__(self, cycle):
        self.cycle = cycle

    def tick(self, cycle, net):
        if cycle == self.cycle:
            raise _Boom(cycle)


class TestSpoolLifecycle:
    def _install(self, tmp_path, period=50):
        sim, _net = _rair_sim()
        col = MetricsCollector(
            ObsConfig(dir=str(tmp_path), sample_period=period), "t"
        ).install(sim)
        return sim, col

    def test_spool_holds_each_sample_before_finalize(self, tmp_path):
        sim, _col = self._install(tmp_path)
        sim.run(3 * 50 + 1)  # samples at cycles 50, 100 and 150
        [spool] = tmp_path.iterdir()
        assert not spool.name.endswith(".jsonl")
        records = [json.loads(line) for line in spool.read_text().splitlines()]
        kinds = [rec["kind"] for rec in records]
        assert kinds[:2] == ["header", "dpa_init"]
        assert kinds.count("vc_sample") == kinds.count("link_sample") == 3
        assert [r["cycle"] for r in records if r["kind"] == "vc_sample"] == [50, 100, 150]
        sim.close()
        assert os.listdir(tmp_path) == []

    def test_clean_run_leaves_one_stream_and_refinalizes_the_same_bytes(self, tmp_path):
        sim, col = self._install(tmp_path)
        res = sim.run_measurement(warmup=100, measure=400, drain_limit=20_000)
        path = tmp_path / "t.jsonl"
        first = path.read_bytes()
        assert col.finalize(res.end_cycle) == res.obs
        assert path.read_bytes() == first
        sim.close()
        assert os.listdir(tmp_path) == ["t.jsonl"]
        assert path.read_bytes() == first
        with pytest.raises(ConfigError, match="closed"):
            col.finalize(res.end_cycle)

    def test_a_run_that_raises_leaves_no_file(self, tmp_path):
        sim, _col = self._install(tmp_path)
        sim.add_traffic(_RaiseAt(300))  # mid-measurement
        with pytest.raises(_Boom):
            try:
                sim.run_measurement(warmup=100, measure=400, drain_limit=20_000)
            finally:
                sim.close()  # what run_scenario does
        assert os.listdir(tmp_path) == []


class TestLatencyStats:
    def test_log2_histogram_is_exact_at_powers_of_two(self):
        stats = latency_summary([1, 2, 3, 4, 8, 1024])
        # [2^0,2^1): {1}; [2^1,2^2): {2,3}; [2^2,2^3): {4}; [2^3,2^4): {8};
        # [2^10,2^11): {1024}
        assert stats["hist"][0] == 1
        assert stats["hist"][1] == 2
        assert stats["hist"][2] == 1
        assert stats["hist"][3] == 1
        assert stats["hist"][10] == 1
        assert sum(stats["hist"]) == stats["count"] == 6
        assert stats["max"] == 1024.0

    def test_percentiles(self):
        stats = latency_summary(list(range(1, 101)))
        assert stats["p50"] == pytest.approx(50.5)
        assert stats["p95"] == pytest.approx(95.05)
        assert stats["p99"] == pytest.approx(99.01)
        assert stats["mean"] == pytest.approx(50.5)
