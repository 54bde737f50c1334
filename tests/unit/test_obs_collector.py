"""Unit tests for the metrics collector (repro.obs.collector)."""

from __future__ import annotations

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

    def test_in_memory_records_validate_as_a_stream(self):
        _sim, col, res = self._run()
        records = col.records()
        # records() excludes the finalize tail — rebuild the full stream
        # through a real finalize-to-disk pass instead.
        assert records[0]["kind"] == "header"
        assert records[0]["schema"] == SCHEMA_VERSION
        assert records[1]["kind"] == "dpa_init"
        assert res.obs.dpa_flips == sum(res.obs.dpa_flips_by_node.values())
        assert res.obs.latency["native"]["count"] > 0
        assert res.obs.latency["foreign"]["count"] > 0

    def test_jsonl_file_written_and_valid(self, tmp_path):
        _sim, col, res = self._run(obs_dir=str(tmp_path))
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
