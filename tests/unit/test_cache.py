"""Property tests for the result-cache key and on-disk entry integrity."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.core.dpa import DpaConfig
from repro.experiments.cache import (
    ResultCache,
    SweepJournal,
    cache_key,
    canonicalize,
)
from repro.experiments.parallel import Cell
from repro.experiments.runner import SCHEMES, Effort, ScenarioRun, Scheme
from repro.experiments.scenarios import ScenarioSpec
from repro.noc.config import NocConfig, VcClass
from repro.noc.stats import RunMetrics

G, R = VcClass.GLOBAL, VcClass.REGIONAL


def make_cell(**overrides) -> Cell:
    base = dict(
        scheme=SCHEMES["RA_RAIR"],
        spec=ScenarioSpec("two_app_msp", {"p_inter": 0.5, "config": NocConfig()}),
        effort=Effort.SMOKE,
        seed=42,
    )
    base.update(overrides)
    return Cell(**base)


def rair_with(policy_kwargs: dict) -> Scheme:  # a scheme variant
    return dataclasses.replace(SCHEMES["RA_RAIR"], policy_kwargs=policy_kwargs)


def make_run() -> ScenarioRun:
    return ScenarioRun(
        scheme="RA_RAIR",
        scenario="two_app_p50",
        window=(200, 1000),
        drained=True,
        undrained_packets=0,
        apl=25.296050332051730,
        per_app_apl={0: 24.125, 1: 26.875000000000004},
        end_cycle=1060,
        packets_measured=321,
        abort=None,
        metrics=RunMetrics(
            wall_time_s=1.5,
            cycles=1060,
            phase_cycles={"warmup": 200, "measure": 800, "drain": 60},
            phase_seconds={"warmup": 0.3, "measure": 1.1, "drain": 0.1},
        ),
    )


class TestKeyStability:
    def test_stable_across_dict_ordering(self):
        a = make_cell(scheme=rair_with({"dpa": DpaConfig(delta=0.3), "x": 1}))
        b = make_cell(scheme=rair_with({"x": 1, "dpa": DpaConfig(delta=0.3)}))
        assert cache_key(a) == cache_key(b)

        s1 = ScenarioSpec("six_app", {"global_pattern": "tp", "loads": {0: 0.1, 1: 0.9}})
        s2 = ScenarioSpec("six_app", {"loads": {1: 0.9, 0: 0.1}, "global_pattern": "tp"})
        assert cache_key(make_cell(spec=s1)) == cache_key(make_cell(spec=s2))

    def test_stable_across_process_restarts(self):
        # str/bytes hashing is salted per process (PYTHONHASHSEED); the key
        # must not depend on it.
        here = cache_key(make_cell())
        code = (
            "from repro.experiments.cache import cache_key\n"
            "from tests.unit.test_cache import make_cell\n"
            "print(cache_key(make_cell()))\n"
        )
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
                check=True,
            )
            assert out.stdout.strip() == here

    @pytest.mark.parametrize(
        "field,value",
        [
            ("width", 9),
            ("height", 9),
            ("num_vnets", 2),
            ("vc_classes", (G, R)),
            ("topology", "torus"),
            ("vc_depth", 6),
            ("link_latency", 2),
            ("credit_latency", 2),
            ("max_packet_flits", 4),
        ],
    )
    def test_distinct_for_any_noc_config_field(self, field, value):
        config = dataclasses.replace(NocConfig(), **{field: value})
        spec = ScenarioSpec("two_app_msp", {"p_inter": 0.5, "config": config})
        assert cache_key(make_cell()) != cache_key(make_cell(spec=spec))

    @pytest.mark.parametrize("field,value", [("delta", 0.3), ("mode", "native")])
    def test_distinct_for_any_dpa_config_field(self, field, value):
        base = make_cell(scheme=rair_with({"dpa": DpaConfig()}))
        changed = make_cell(
            scheme=rair_with({"dpa": dataclasses.replace(DpaConfig(), **{field: value})})
        )
        assert cache_key(base) != cache_key(changed)

    def test_distinct_for_scheme_effort_seed_and_spec(self):
        base = make_cell()
        assert cache_key(base) != cache_key(make_cell(scheme=SCHEMES["RO_RR"]))
        assert cache_key(base) != cache_key(
            make_cell(scheme=Scheme("RA_RAIR", "rair", "dbar"))
        )
        assert cache_key(base) != cache_key(make_cell(effort=Effort.FAST))
        assert cache_key(base) != cache_key(make_cell(seed=43))
        assert cache_key(base) != cache_key(
            make_cell(spec=ScenarioSpec("two_app_msp", {"p_inter": 0.6}))
        )

    def test_unhashable_input_rejected(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonicalize(object())


class TestOnDiskEntries:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(make_cell())
        run = make_run()
        cache.put(key, run)
        back = cache.get(key)
        assert back == run  # metrics excluded from ==
        assert back.metrics == run.metrics

    def test_miss_on_empty_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None

    def test_truncated_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(make_cell())
        cache.put(key, make_run())
        path = cache.path_for(key)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.get(key) is None
        assert not path.exists()
        # recompute-and-put path works again afterwards
        cache.put(key, make_run())
        assert cache.get(key) == make_run()

    def test_tampered_payload_fails_checksum(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(make_cell())
        cache.put(key, make_run())
        path = cache.path_for(key)
        entry = json.loads(path.read_text())
        entry["payload"]["fields"]["apl"] = 1.0  # valid JSON, wrong content
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_version_or_key_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(make_cell())
        cache.put(key, make_run())
        other = "f" * 64
        target = cache.path_for(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(cache.path_for(key), target)
        assert cache.get(other) is None  # embedded key disagrees with name


class TestSweepJournal:
    KEYS = ["a" * 64, "b" * 64, "c" * 64]

    def test_sweep_key_depends_on_cell_order(self):
        assert SweepJournal.key_for(self.KEYS) == SweepJournal.key_for(self.KEYS)
        assert (SweepJournal.key_for(self.KEYS)
                != SweepJournal.key_for(list(reversed(self.KEYS))))
        assert SweepJournal.key_for(self.KEYS) != SweepJournal.key_for(self.KEYS[:2])

    def test_record_load_round_trip(self, tmp_path):
        journal = SweepJournal(tmp_path, SweepJournal.key_for(self.KEYS))
        assert journal.load() == set()  # no file yet: empty, not an error
        journal.record(self.KEYS[0])
        journal.record(self.KEYS[1])
        assert journal.load() == {self.KEYS[0], self.KEYS[1]}
        # a fresh instance reads the same file (cross-invocation resume)
        again = SweepJournal(tmp_path, SweepJournal.key_for(self.KEYS))
        assert again.load() == {self.KEYS[0], self.KEYS[1]}

    def test_truncated_mid_record_discards_partial_line_only(self, tmp_path):
        # A crash can also *shorten* the file (lost tail of a page write):
        # resume must keep every whole record and silently drop the one
        # the truncation bisected.
        journal = SweepJournal(tmp_path, "deadbeef")
        for key in self.KEYS:
            journal.record(key)
        size = journal.path.stat().st_size
        # cut=1 would only shave the trailing newline — the record content
        # survives whole and is rightly kept; cut>=2 bisects the JSON
        for cut in (2, 7, 25):  # various mid-final-record truncation points
            with open(journal.path, "r+b") as fh:
                fh.truncate(size - cut)
            loaded = journal.load()
            assert self.KEYS[0] in loaded and self.KEYS[1] in loaded
            assert self.KEYS[2] not in loaded  # bisected record dropped
        # and the journal remains appendable afterwards
        journal.record(self.KEYS[2])
        assert journal.load() == set(self.KEYS)

    def test_non_ok_and_malformed_records_are_ignored(self, tmp_path):
        journal = SweepJournal(tmp_path, "deadbeef")
        journal.record(self.KEYS[1])
        with open(journal.path, "a") as fh:
            fh.write(f'{{"key": "{self.KEYS[0]}", "status": "failed"}}\n')
            fh.write('"just a string"\n{"status": "ok"}\n')
        assert journal.load() == {self.KEYS[1]}

    def test_journals_never_collide_with_result_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(make_cell())
        cache.put(key, make_run())
        journal = SweepJournal(tmp_path, "deadbeef")
        journal.record(key)
        assert len(cache) == 1  # *.jsonl journals invisible to the entry glob
        assert cache.get(key) is not None

