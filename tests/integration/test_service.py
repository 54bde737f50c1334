"""Integration tests for the sweep service (daemon + client, end to end).

Each test spawns a real daemon subprocess with ``--port 0`` (ephemeral)
and talks to it over HTTP, exactly like production. The core assertions
mirror the subsystem's contract:

* service-submitted sweeps are **bit-identical** to direct
  :func:`~repro.experiments.parallel.run_cells_detailed` execution —
  same determinism signatures, byte-identical obs JSONL, cache entries
  shared in both directions;
* priority classes dispatch strictly (high before normal before low),
  proven via ``start_seq`` with the daemon started ``--paused``;
* a full queue answers 429 + Retry-After (backpressure, not failure);
* a daemon SIGKILLed mid-job recovers on restart: queued and incomplete
  jobs resume, completed cells are never re-run or duplicated;
* a killed *worker* (chaos ``kill_once``) is healed by the engine and
  the daemon stays up;
* a job ends at its one ``job_end``: recovery reads the terminal status
  back from it and never re-runs the job;
* a submit the journal refused never enters the job table, so it never
  runs;
* a stream opened while its job publishes sees each cell exactly once;
* SIGINT exits 0 at once, mid-job too, and the job resumes on restart.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.parse

import pytest

import repro
from repro.experiments.chaos import chaos_cell
from repro.experiments.parallel import (
    Cell,
    CellResult,
    ExecutionReport,
    FaultPolicy,
    run_cells_detailed,
)
from repro.experiments.runner import SCHEMES, Effort
from repro.experiments.scenarios import two_app_msp
from repro.obs.collector import ObsConfig
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import SweepDaemon
from repro.service.jobstore import JobStore
from repro.service.protocol import (
    PROTOCOL_VERSION,
    TERMINAL_STATES,
    JobRecord,
    JobSpec,
    cell_result_to_wire,
    decode_as,
    encode_value,
)
from repro.util.jsonl import append_record

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parents[1])


def ok_cell(cell_id: int = 0, seed: int = 1) -> Cell:
    """A cheap, healthy cell (tiny 4x4 uniform sweep)."""
    return chaos_cell(SCHEMES["RO_RR"], Effort.SMOKE, seed, mode="ok", cell_id=cell_id)


def msp_cells(seeds=(1,)) -> list[Cell]:
    """Small fig10-shaped cells: the two-app MSP scenario, two schemes."""
    scenario = two_app_msp(p_inter=1.0)
    return [
        Cell.for_scenario(SCHEMES[s], scenario, Effort.SMOKE, seed=seed)
        for seed in seeds
        for s in ("RO_RR_Local", "RAIR_Local")
    ]


class Daemon:
    """A daemon subprocess plus the client pointed at it."""

    def __init__(self, store: pathlib.Path, *extra_args: str):
        self.store = pathlib.Path(store)
        endpoint = self.store / "endpoint"
        endpoint.unlink(missing_ok=True)  # never trust a stale URL
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service.daemon",
                "--store",
                str(self.store),
                "--port",
                "0",
                *extra_args,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + 30.0
        url = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise AssertionError(
                    f"daemon exited {self.proc.returncode}: {self.proc.stdout.read()}"
                )
            url = JobStore(self.store).read_endpoint()
            if url:
                break
            time.sleep(0.05)
        assert url, "daemon never advertised an endpoint"
        self.url = url
        self.client = ServiceClient(url)
        assert self.client.health()["status"] == "ok"

    def wait(self, job_id: str, timeout_s: float = 120.0) -> dict:
        """Poll until the job is terminal; its status record."""
        deadline = time.monotonic() + timeout_s
        while (status := self.client.job(job_id))["state"] not in TERMINAL_STATES:
            assert time.monotonic() < deadline, f"job {job_id} stuck: {status}"
            time.sleep(0.05)
        return status

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(10)

    def interrupt(self) -> None:
        """SIGINT must exit 0 within 2 s, without a traceback."""
        self.proc.send_signal(signal.SIGINT)
        code = self.proc.wait(2.0)
        output = self.proc.stdout.read()
        assert code == 0 and "Traceback" not in output, output

    def terminate(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(10)

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.terminate()


class TestBitIdentity:
    def test_service_matches_direct_and_shares_cache(self, tmp_path):
        cells = msp_cells()
        cache = str(tmp_path / "cache")
        direct, direct_report = run_cells_detailed(cells, jobs=1)
        with Daemon(tmp_path / "store") as daemon:
            via, via_report = run_cells_detailed(
                cells, jobs=1, cache=cache, service=daemon.url
            )
            assert [r.ok for r in via] == [True] * len(cells)
            assert via_report.cells == len(cells) == direct_report.cells
            for d, s in zip(direct, via):
                assert s.cell == d.cell
                assert (
                    s.run.determinism_signature() == d.run.determinism_signature()
                )
            # direct run against the cache the *service* populated: all hits
            _, local_report = run_cells_detailed(cells, jobs=1, cache=cache)
            assert local_report.cache_hits == len(cells)
            # and a second service run hits the same entries back
            _, again_report = run_cells_detailed(
                cells, jobs=1, cache=cache, service=daemon.url
            )
            assert again_report.cache_hits == len(cells)

    def test_obs_jsonl_byte_identical(self, tmp_path):
        cells = [ok_cell(cell_id=i) for i in range(2)]
        direct_dir = tmp_path / "obs-direct"
        service_dir = tmp_path / "obs-service"
        direct = FaultPolicy(obs=ObsConfig(dir=str(direct_dir)))
        run_cells_detailed(cells, jobs=1, policy=direct)
        with Daemon(tmp_path / "store") as daemon:
            via = FaultPolicy(obs=ObsConfig(dir=str(service_dir)))
            run_cells_detailed(cells, jobs=1, policy=via, service=daemon.url)
        direct_files = sorted(p.name for p in direct_dir.glob("*.jsonl"))
        service_files = sorted(p.name for p in service_dir.glob("*.jsonl"))
        assert direct_files == service_files and direct_files
        for name in direct_files:
            assert (direct_dir / name).read_bytes() == (
                service_dir / name
            ).read_bytes(), name

    def test_streamed_records_match_submitted_cells(self, tmp_path):
        cells = [ok_cell(cell_id=i) for i in range(3)]
        with Daemon(tmp_path / "store") as daemon:
            submitted = daemon.client.submit(JobSpec(cells=cells))
            records = list(daemon.client.stream_results(submitted["id"]))
        kinds = [r["kind"] for r in records]
        assert kinds.count("cell") == 3
        assert kinds[-1] == "job_end"
        assert records[-1]["state"] == "done"
        assert sorted(r["index"] for r in records if r["kind"] == "cell") == [0, 1, 2]


class TestSchedulingAndBackpressure:
    def test_priority_classes_dispatch_in_order(self, tmp_path):
        with Daemon(tmp_path / "store", "--paused") as daemon:
            ids = {}
            for i, priority in enumerate(("low", "normal", "high")):
                spec = JobSpec(cells=[ok_cell(cell_id=i)], priority=priority)
                ids[priority] = daemon.client.submit(spec)["id"]
            # held: nothing dispatched yet
            assert daemon.client.health()["queued"] == 3
            daemon.client.resume()
            seqs = {
                p: daemon.wait(job_id)["start_seq"]
                for p, job_id in ids.items()
            }
            assert seqs["high"] < seqs["normal"] < seqs["low"]

    def test_full_queue_rejects_with_429(self, tmp_path):
        with Daemon(tmp_path / "store", "--paused", "--max-queued", "1") as daemon:
            first = daemon.client.submit(JobSpec(cells=[ok_cell(0)]))
            assert first["state"] == "queued"
            status, headers, payload = daemon.client._request(
                "POST", "/v1/jobs", body=encode_value(JobSpec(cells=[ok_cell(1)]))
            )
            assert status == 429
            assert float(headers.get("Retry-After", 0)) > 0
            assert "full" in payload["error"]
            with pytest.raises(ServiceError) as exc:
                daemon.client.submit(
                    JobSpec(cells=[ok_cell(2)]), retries=1, max_sleep_s=0.1
                )
            assert exc.value.status == 429
            # draining the queue restores admission
            daemon.client.cancel(first["id"])
            accepted = daemon.client.submit(JobSpec(cells=[ok_cell(3)]))
            assert accepted["state"] == "queued"

    def test_cancel_queued_job_terminates_stream(self, tmp_path):
        with Daemon(tmp_path / "store", "--paused") as daemon:
            job_id = daemon.client.submit(JobSpec(cells=[ok_cell()]))["id"]
            cancelled = daemon.client.cancel(job_id)
            assert cancelled["state"] == "cancelled"
            records = list(daemon.client.stream_results(job_id))
            assert [r["kind"] for r in records] == ["job_end"]
            assert records[-1]["state"] == "cancelled"
            # cancelling again is a conflict, not a success
            with pytest.raises(ServiceError) as exc:
                daemon.client.cancel(job_id)
            assert exc.value.status == 409

    def test_unknown_job_and_bad_spec(self, tmp_path):
        with Daemon(tmp_path / "store") as daemon:
            with pytest.raises(ServiceError) as exc:
                daemon.client.job("j999999")
            assert exc.value.status == 404
            for body in ({"cells": ["garbage"]}, {"cells": [{"__repro__": "tuple"}]}):
                status, _, payload = daemon.client._request("POST", "/v1/jobs", body=body)
                assert status == 400
                assert "bad job spec" in payload["error"]

    @pytest.mark.parametrize(
        "length, status", [("abc", 400), ("-5", 400), (str(64 * 1024 * 1024 + 1), 413)]
    )
    def test_content_length_is_validated(self, tmp_path, length, status):
        with Daemon(tmp_path / "store") as daemon:
            address = urllib.parse.urlsplit(daemon.url)
            with socket.create_connection((address.hostname, address.port), 10) as sock:
                sock.sendall(
                    f"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {length}\r\n\r\n".encode()
                )
                status_line = sock.makefile("rb").readline()
            assert status_line.split()[1] == str(status).encode(), status_line
            assert daemon.client.health()["jobs"] == 0


class TestJobEnd:
    def test_a_job_is_terminal_at_its_job_end(self, tmp_path):
        # Nothing is journaled after the submit: the stream alone says
        # which cells finished and how the job ended.
        store = JobStore(tmp_path)
        job = JobRecord.new("j000001", JobSpec(cells=[ok_cell()]))
        store.append_submit(job)
        (done,), report = run_cells_detailed([ok_cell()])
        store.append_result(job.id, cell_result_to_wire(done, 0))
        job.state, job.completed, job.start_seq = "done", 1, 3
        job.started_at, job.finished_at = job.submitted_at + 1, job.submitted_at + 2
        store.append_result(job.id, {
            "kind": "job_end",
            "id": job.id,
            "state": job.state,
            "error": None,
            "report": encode_value(report),
            "job": job.status_wire(),
        })

        daemon = SweepDaemon(JobStore(tmp_path))
        assert daemon.recover() == 0
        assert daemon.jobs[job.id].status_wire() == job.status_wire()
        assert daemon._start_next() is None  # recovery does not re-run it


class TestSubmitJournal:
    def test_a_submit_the_journal_refused_never_runs(self, tmp_path):
        class FullDisk(JobStore):
            full = True

            def append_submit(self, record):
                if self.full:
                    raise OSError("no space left on device")
                super().append_submit(record)

        daemon = SweepDaemon(FullDisk(tmp_path))
        body = json.dumps(encode_value(JobSpec(cells=[ok_cell()]))).encode()
        with pytest.raises(OSError):  # the handler answers 500
            daemon.route("POST", "/v1/jobs", body)
        assert daemon.jobs == {}
        assert daemon._start_next() is None
        assert not (tmp_path / "results").exists()

        daemon.store.full = False
        _, accepted = daemon.route("POST", "/v1/jobs", body)
        assert accepted["id"] == "j000002"  # the refused id is never reused
        assert list(daemon.jobs) == ["j000002"]


class TestStoreCompatibility:
    def test_a_store_from_before_result_sources_runs_and_replays(self, tmp_path):
        # Until results carried one source, the journal held a priority
        # field per job and each cell record cache_hit/resumed flags.
        store = JobStore(tmp_path)
        (done,), _ = run_cells_detailed([ok_cell()])
        for job_id in ("j000001", "j000002"):
            job = encode_value(JobRecord.new(job_id, JobSpec(cells=[ok_cell()])))
            job["fields"]["priority"] = "normal"
            append_record(store.journal_path, {
                "event": "submit", "v": PROTOCOL_VERSION, "id": job_id, "job": job
            })
        rec = cell_result_to_wire(done, 0)
        del rec["result"]["fields"]["source"]
        rec["result"]["fields"].update(cache_hit=True, resumed=False)
        store.append_result("j000001", rec)
        store.append_result(
            "j000001", {"kind": "job_end", "state": "done", "job": {"state": "done"}}
        )

        daemon = SweepDaemon(store)
        assert daemon.recover() == 1
        daemon._run_job(daemon._start_next())
        assert daemon.jobs["j000002"].state == "done"
        _, stream = daemon.route("GET", "/v1/jobs/j000001/results", b"")
        old = decode_as(next(stream)["result"], CellResult)
        assert old.source == "simulated" and old.run == done.run


class TestOneLock:
    def test_every_stream_sees_each_cell_once(self, tmp_path):
        # Readers subscribe at staggered points while the job publishes. A
        # record both in a reader's snapshot and in its feed, or in neither,
        # breaks that reader's count. Cache hits make the job mostly
        # publishing, so most subscriptions land beside a publish.
        cache = str(tmp_path / "cache")
        cells = [ok_cell(cell_id=i) for i in range(4)]
        run_cells_detailed(cells, cache=cache)
        daemon = SweepDaemon(JobStore(tmp_path / "store"))
        spec = JobSpec(cells=cells * 8, cache=cache)
        body = json.dumps(encode_value(spec)).encode()
        _, submitted = daemon.route("POST", "/v1/jobs", body)
        results_path = f"/v1/jobs/{submitted['id']}/results"
        job = daemon._start_next()
        streams = []

        def read(delay_s: float) -> None:
            time.sleep(delay_s)
            _, records = daemon.route("GET", results_path, b"")
            indices = []
            for rec in records:
                if rec["kind"] == "job_end":
                    break
                indices.append(rec["index"])
            streams.append(indices)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=daemon._run_job, args=(job,))]
            threads += [
                threading.Thread(target=read, args=(0.003 * k,)) for k in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(streams) == 16
        assert all(sorted(s) == list(range(32)) for s in streams), streams


    def test_a_closed_stream_unsubscribes(self, tmp_path):
        daemon = SweepDaemon(JobStore(tmp_path))
        body = json.dumps(encode_value(JobSpec(cells=[ok_cell()]))).encode()
        job_id = daemon.route("POST", "/v1/jobs", body)[1]["id"]
        daemon._start_next()
        daemon.store.append_result(job_id, {"kind": "cell", "seq": 0, "index": 0})
        _, stream = daemon.route("GET", f"/v1/jobs/{job_id}/results", b"")
        assert next(stream)["index"] == 0
        assert len(daemon._subscribers[job_id]) == 1
        stream.close()  # what the handler does once the client hangs up
        assert daemon._subscribers[job_id] == []


class TestSigint:
    def test_idle_daemon_exits_at_once(self, tmp_path):
        Daemon(tmp_path / "store").interrupt()

    @pytest.mark.parametrize("jobs", [1, 2])  # the cell in-thread / in a worker
    def test_mid_job_daemon_exits_and_the_job_resumes(self, tmp_path, jobs):
        marker = str(tmp_path / "release.marker")
        cells = [
            ok_cell(cell_id=0),
            chaos_cell(
                SCHEMES["RO_RR"],
                Effort.SMOKE,
                seed=1,
                mode="wait_marker",
                marker=marker,
                cell_id=1,
            ),
        ]
        store = tmp_path / "store"
        daemon = Daemon(store)
        try:
            job_id = daemon.client.submit(JobSpec(cells=cells, jobs=jobs))["id"]
            deadline = time.monotonic() + 60.0
            while daemon.client.job(job_id)["completed"] < 1:
                assert time.monotonic() < deadline, "first cell never completed"
                time.sleep(0.05)
            daemon.interrupt()  # cell 1 is blocked on the marker
        finally:
            daemon.kill()

        open(marker, "w").close()
        with Daemon(store) as revived:
            assert revived.wait(job_id)["state"] == "done"
            records = list(revived.client.stream_results(job_id))
        indices = [r["index"] for r in records if r["kind"] == "cell"]
        assert sorted(indices) == [0, 1]


@pytest.mark.chaos
class TestCrashRecovery:
    def test_killed_daemon_resumes_without_duplicating_cells(self, tmp_path):
        marker = str(tmp_path / "release.marker")
        cells = [
            ok_cell(cell_id=0),
            chaos_cell(
                SCHEMES["RO_RR"],
                Effort.SMOKE,
                seed=1,
                mode="wait_marker",
                marker=marker,
                cell_id=1,
            ),
        ]
        store = tmp_path / "store"
        daemon = Daemon(store)
        try:
            job_id = daemon.client.submit(JobSpec(cells=cells))["id"]
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if daemon.client.job(job_id)["completed"] >= 1:
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("first cell never completed")
            # cell 0 is durable; cell 1 is blocked on the marker. Pull the
            # plug mid-job.
            daemon.kill()
        finally:
            daemon.kill()

        open(marker, "w").close()  # release the blocked cell for the revival
        with Daemon(store) as revived:
            status = revived.wait(job_id)
            assert status["state"] == "done"
            records = list(revived.client.stream_results(job_id))
            cell_records = [r for r in records if r["kind"] == "cell"]
            indices = [r["index"] for r in cell_records]
            # every cell exactly once: the completed cell was not re-run
            assert sorted(indices) == [0, 1]
            assert len(indices) == len(set(indices))
            assert records[-1]["kind"] == "job_end"
            report = decode_as(records[-1]["report"], ExecutionReport)
            assert (report.replayed, report.resumed, report.cache_misses) == (1, 0, 1)
            assert report.cells == 2 == report.replayed + report.cache_misses

    def test_queued_jobs_survive_restart(self, tmp_path):
        store = tmp_path / "store"
        daemon = Daemon(store, "--paused")
        try:
            job_id = daemon.client.submit(JobSpec(cells=[ok_cell()]))["id"]
            daemon.kill()
        finally:
            daemon.kill()
        with Daemon(store) as revived:  # not paused: dispatch resumes
            status = revived.wait(job_id)
            assert status["state"] == "done"
            assert status["completed"] == 1

    def test_daemon_survives_killed_worker(self, tmp_path):
        # kill_once SIGKILLs the *executing* process. jobs=2 gives every
        # cell attempt its own worker process, so the casualty is that
        # worker — never the daemon — and the engine's retry heals the cell.
        marker = str(tmp_path / "kill.marker")
        cells = [
            chaos_cell(
                SCHEMES["RO_RR"],
                Effort.SMOKE,
                seed=1,
                mode="kill_once",
                marker=marker,
                cell_id=0,
            ),
            ok_cell(cell_id=1),
        ]
        with Daemon(tmp_path / "store") as daemon:
            results, report = run_cells_detailed(cells, jobs=2, service=daemon.url)
            assert [r.ok for r in results] == [True, True]
            assert report.retries >= 1
            health = daemon.client.health()
            assert health["status"] == "ok"
            assert daemon.proc.poll() is None


class TestSubmitCli:
    def run_cli(self, *args: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.service.submit", *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_health_list_show_watch(self, tmp_path):
        with Daemon(tmp_path / "store") as daemon:
            job_id = daemon.client.submit(JobSpec(cells=[ok_cell()]))["id"]
            daemon.wait(job_id)

            health = self.run_cli("--service", daemon.url, "health")
            assert health.returncode == 0
            assert json.loads(health.stdout)["status"] == "ok"

            # store-directory form of --service resolves via the endpoint file
            listing = self.run_cli("--service", str(tmp_path / "store"), "list")
            assert listing.returncode == 0
            assert [j["id"] for j in json.loads(listing.stdout)] == [job_id]

            shown = self.run_cli("--service", daemon.url, "show", job_id)
            assert json.loads(shown.stdout)["state"] == "done"

            watched = self.run_cli("--service", daemon.url, "watch", job_id)
            assert watched.returncode == 0
            assert f"job {job_id}: done" in watched.stdout

    def test_unreachable_service_is_a_clean_error(self, tmp_path):
        result = self.run_cli("--service", "http://127.0.0.1:9", "health")
        assert result.returncode == 1
        assert "error:" in result.stderr
