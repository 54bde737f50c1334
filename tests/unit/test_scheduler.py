"""Unit tests for the sweep daemon's job table as its queue (no server, no engine)."""

from __future__ import annotations

import json

import pytest

from repro.experiments.chaos import chaos_cell
from repro.experiments.runner import SCHEMES, Effort
from repro.service.daemon import SweepDaemon, _HttpError
from repro.service.jobstore import JobStore
from repro.service.protocol import JobSpec, encode_value


def make_daemon(tmp_path, **kwargs) -> SweepDaemon:
    return SweepDaemon(JobStore(tmp_path), **kwargs)


def post(daemon: SweepDaemon, priority: str = "normal") -> dict:
    """Submit a one-cell job; the 201 body."""
    cell = chaos_cell(SCHEMES["RO_RR"], Effort.SMOKE, 1, mode="ok")
    body = json.dumps(encode_value(JobSpec(cells=[cell], priority=priority))).encode()
    return daemon.route("POST", "/v1/jobs", body)[1]


def submit(daemon: SweepDaemon, priority: str = "normal") -> str:
    return post(daemon, priority)["id"]


def next_job(daemon: SweepDaemon) -> str | None:
    job = daemon._start_next()
    return None if job is None else job.id


def position(daemon: SweepDaemon, job_id: str) -> int | None:
    return daemon.route("GET", f"/v1/jobs/{job_id}", b"")[1]["position"]


class TestDispatchOrder:
    def test_fifo_within_class(self, tmp_path):
        daemon = make_daemon(tmp_path)
        ids = [submit(daemon) for _ in range(3)]
        assert [next_job(daemon) for _ in range(3)] == ids

    def test_strict_priority_across_classes(self, tmp_path):
        daemon = make_daemon(tmp_path)
        low, norm, high1, high2 = (
            submit(daemon, p) for p in ("low", "normal", "high", "high")
        )
        order = [next_job(daemon) for _ in range(4)]
        assert order == [high1, high2, norm, low]

    def test_late_high_jumps_queued_normal(self, tmp_path):
        daemon = make_daemon(tmp_path)
        n1, n2 = submit(daemon), submit(daemon)
        assert next_job(daemon) == n1  # already dispatched: not preempted
        h1 = submit(daemon, "high")
        assert next_job(daemon) == h1
        assert next_job(daemon) == n2

    def test_empty_returns_none(self, tmp_path):
        assert next_job(make_daemon(tmp_path)) is None

    def test_dispatched_counter_is_start_seq_source(self, tmp_path):
        daemon = make_daemon(tmp_path)
        a, b = submit(daemon), submit(daemon)
        assert daemon.dispatched == 0
        next_job(daemon)
        assert daemon.dispatched == daemon.jobs[a].start_seq == 1
        next_job(daemon)
        assert daemon.dispatched == daemon.jobs[b].start_seq == 2


class TestAdmissionControl:
    def test_queue_full_raises_with_retry_hint(self, tmp_path):
        daemon = make_daemon(tmp_path, max_queued=2)
        submit(daemon)
        submit(daemon, "high")
        with pytest.raises(_HttpError) as exc:
            submit(daemon)
        assert exc.value.status == 429
        assert float(exc.value.headers["Retry-After"]) > 0

    def test_bound_is_global_across_classes(self, tmp_path):
        daemon = make_daemon(tmp_path, max_queued=1)
        submit(daemon, "low")
        with pytest.raises(_HttpError, match="queue full"):
            submit(daemon, "high")

    def test_dispatch_frees_capacity(self, tmp_path):
        daemon = make_daemon(tmp_path, max_queued=1)
        submit(daemon)
        next_job(daemon)
        submit(daemon)  # no raise: the running job no longer counts

    def test_requeue_bypasses_the_bound(self, tmp_path):
        # recovery re-admits already-accepted jobs even past max_queued:
        # the bound gates new work, not a restart
        before = make_daemon(tmp_path)
        submit(before)
        high = submit(before, "high")
        after = make_daemon(tmp_path, max_queued=1)
        assert after.recover() == 2
        assert after._health()["queued"] == 2
        assert next_job(after) == high

    def test_rejects_silly_bound(self, tmp_path):
        with pytest.raises(ValueError):
            make_daemon(tmp_path, max_queued=0)


class TestCancelAndPosition:
    def test_cancel_queued(self, tmp_path):
        daemon = make_daemon(tmp_path)
        a, b = submit(daemon), submit(daemon)
        cancelled = daemon.route("POST", f"/v1/jobs/{a}/cancel", b"")[1]
        assert cancelled["state"] == "cancelled"
        assert next_job(daemon) == b

    def test_cancel_running_refused(self, tmp_path):
        daemon = make_daemon(tmp_path)
        a = submit(daemon)
        next_job(daemon)
        with pytest.raises(_HttpError) as exc:
            daemon.route("POST", f"/v1/jobs/{a}/cancel", b"")
        assert exc.value.status == 409

    def test_position_accounts_for_higher_classes(self, tmp_path):
        daemon = make_daemon(tmp_path)
        n1 = submit(daemon)
        created = post(daemon, "high")
        assert created["position"] == 0  # the 201 body's distance is global
        assert position(daemon, created["id"]) == 0
        assert position(daemon, n1) == 1
        next_job(daemon)
        assert position(daemon, created["id"]) is None  # running: not queued

    def test_finish_clears_running(self, tmp_path):
        daemon = make_daemon(tmp_path)
        submit(daemon)
        job = daemon._start_next()
        assert daemon._health()["running"] == 1
        daemon._end(job, "done", None)
        assert daemon._health()["running"] == 0

    def test_snapshot_shape(self, tmp_path):
        daemon = make_daemon(tmp_path, max_queued=7)
        submit(daemon, "low")
        snap = daemon._health()
        assert snap["queued"] == 1
        assert snap["max_queued"] == 7
        assert snap["by_priority"] == {"high": 0, "normal": 0, "low": 1}
        assert snap["running"] == 0
        assert snap["dispatched"] == 0
