"""Unit tests for the durable job store (repro.service.jobstore)."""

from __future__ import annotations

import pytest

from repro.experiments.parallel import Cell
from repro.experiments.runner import SCHEMES, Effort
from repro.experiments.scenarios import ScenarioSpec
from repro.service.jobstore import JobStore
from repro.service.protocol import PROTOCOL_VERSION, JobRecord, JobSpec, encode_value
from repro.util.jsonl import append_record


def make_job(job_id: str, priority: str = "normal", n_cells: int = 1) -> JobRecord:
    cells = [
        Cell(
            scheme=SCHEMES["RO_RR"],
            spec=ScenarioSpec(
                "repro.experiments.chaos:chaos_scenario",
                {"mode": "ok", "marker": None, "cell_id": i, "rate": 0.05},
            ),
            effort=Effort.SMOKE,
            seed=1,
        )
        for i in range(n_cells)
    ]
    return JobRecord.new(job_id, JobSpec(cells=cells, priority=priority))


class TestJournalReplay:
    def test_recover_empty_store(self, tmp_path):
        store = JobStore(tmp_path / "store")
        assert store.recover() == {}
        assert store.next_job_number() == 1

    def test_submit_then_recover(self, tmp_path):
        store = JobStore(tmp_path / "store")
        job = make_job("j000001", priority="high", n_cells=2)
        store.append_submit(job)
        jobs = JobStore(tmp_path / "store").recover()
        assert set(jobs) == {"j000001"}
        out = jobs["j000001"]
        assert out.spec == job.spec
        assert out.state == "queued"
        assert out.priority == "high"

    def test_torn_tail_does_not_break_replay(self, tmp_path):
        store = JobStore(tmp_path / "store")
        store.append_submit(make_job("j000001"))
        with open(store.journal_path, "a", encoding="utf-8") as fh:
            fh.write('\n{"event": "submit", "v": 5, "id": "j000002", "jo')  # torn
        jobs = JobStore(tmp_path / "store").recover()
        assert set(jobs) == {"j000001"}
        assert jobs["j000001"].state == "queued"

    def test_undecodable_submit_collected_not_fatal(self, tmp_path):
        store = JobStore(tmp_path / "store")
        store.append_submit(make_job("j000001"))
        # fields not an object: an AttributeError, which once stopped recovery
        job = {"__repro__": "dataclass", "type": "repro.service.protocol:JobRecord", "fields": [1]}
        append_record(
            store.journal_path,
            {"event": "submit", "v": PROTOCOL_VERSION, "id": "j000002", "job": job},
        )
        fresh = JobStore(tmp_path / "store")
        jobs = fresh.recover()
        assert set(jobs) == {"j000001"}
        assert fresh.undecodable == ["j000002"]

    @pytest.mark.parametrize("v", [3, 5, 6])
    def test_submit_from_another_protocol_version_is_not_replayed(self, tmp_path, v):
        """A queued job journaled under an older protocol would decode — the
        codec drops the fields it no longer knows, such as the policy's cycle
        budget (3), a cell's policy overrides (5) or a config's escape VC
        count (6) — and re-run without them."""
        store = JobStore(tmp_path / "store")
        job = encode_value(make_job("j000007"))
        append_record(
            store.journal_path, {"event": "submit", "v": v, "id": "j000007", "job": job}
        )
        assert store.recover() == {}
        assert store.undecodable == ["j000007"]
        assert store.next_job_number() == 8

    def test_next_job_number_skips_ids(self, tmp_path):
        store = JobStore(tmp_path / "store")
        store.append_submit(make_job("j000005"))
        store.append_submit(make_job("j000002"))
        assert store.next_job_number() == 6


class TestResultStreams:
    def test_append_and_replay(self, tmp_path):
        store = JobStore(tmp_path / "store")
        store.append_result("j1", {"kind": "cell", "seq": 0, "index": 2})
        store.append_result("j1", {"kind": "cell", "seq": 1, "index": 0})
        recs = store.result_records("j1")
        assert [r["seq"] for r in recs] == [0, 1]
        assert store.result_records("j-missing") == []

    def test_completed_indices(self, tmp_path):
        store = JobStore(tmp_path / "store")
        store.append_result("j1", {"kind": "cell", "seq": 0, "index": 2})
        store.append_result("j1", {"kind": "cell", "seq": 1, "index": 0})
        store.append_result("j1", {"kind": "job_end", "state": "done"})
        assert set(store.cell_records("j1")) == {0, 2}

    def test_recover_counts_completed_from_streams(self, tmp_path):
        store = JobStore(tmp_path / "store")
        store.append_submit(make_job("j000001", n_cells=3))
        store.append_result("j000001", {"kind": "cell", "seq": 0, "index": 1})
        job = JobStore(tmp_path / "store").recover()["j000001"]
        assert job.completed == 1
        assert job.state == "queued"  # no job_end: the daemon's recovery set


class TestEndpointFile:
    def test_write_and_read(self, tmp_path):
        store = JobStore(tmp_path / "store")
        assert store.read_endpoint() is None
        store.write_endpoint("http://127.0.0.1:12345")
        assert store.read_endpoint() == "http://127.0.0.1:12345"
        assert JobStore(tmp_path / "store").read_endpoint() == "http://127.0.0.1:12345"
