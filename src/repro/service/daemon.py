"""The sweep-service daemon: ``python -m repro.service.daemon``.

A single-process service that owns the experiment worker processes and
serves a localhost HTTP+JSONL API::

    GET  /v1/health                 liveness + queue depths + version/git-rev/
                                    protocol stamp
    POST /v1/jobs                   submit a job (encoded JobSpec)
                                    -> 201 {id, state, position}
                                    -> 429 + Retry-After on backpressure
    GET  /v1/jobs                   job listing (spec-free status records)
    GET  /v1/jobs/<id>              one job's status
    GET  /v1/jobs/<id>/results      JSONL stream: replay of durable cell
                                    records, then live tail to job_end
    POST /v1/jobs/<id>/cancel       cancel a *queued* job (409 otherwise)
    POST /v1/control/pause|resume   hold / release dispatch (testing, ops)

Execution model: one dispatcher thread runs one job at a time — the
highest-priority queued job, FIFO within class — through the unmodified
:func:`~repro.experiments.parallel.run_cells_detailed`; a job's own
``jobs`` fans its cells over worker processes. The daemon adds
scheduling, durability, and streaming *around* the engine, never a
different engine, which is what keeps service results bit-identical to
direct runs (same cache keys, same fault-policy semantics, byte-identical
obs JSONL).

Threads: the stdlib :class:`~http.server.ThreadingHTTPServer` answers
each connection on its own thread, beside the dispatcher. One lock,
``_lock``, guards every read and write of daemon state — the job table,
subscribers and store appends; only the engine call and socket writes
run outside it. The job table is the queue: :func:`dispatch_order` ranks
the ``queued`` records, and the dispatcher marks its pick ``running`` in
the same critical section. All threads are daemon threads, so SIGINT
returns at once: a running job has no ``job_end`` yet and resumes on
restart, exactly as after SIGKILL.

Durability: a job is its journaled submit plus its result stream
(:mod:`repro.service.jobstore`), each written *before* anyone sees it —
the submit before the job enters the table (a failed append answers 500
and runs nothing), every completed cell and the one ``job_end`` before
subscribers get them. ``running`` is never written down. On restart the
daemon queues every job whose stream has no ``job_end``, in original
submission order, and re-runs only cells without a durable result
record — a killed daemon never duplicates completed work and never
loses an accepted job. The replayed records enter the job's report as
``replayed``.

HTTP is :mod:`http.server`'s HTTP/1.0: one request per connection, and
streaming responses are unframed JSONL written per record. The daemon
binds 127.0.0.1 by default and treats the socket as a local trust
boundary, like the worker-process pipes it wraps.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import multiprocessing
import os
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro._version import version_blurb
from repro.experiments.parallel import CellResult, ExecutionReport, run_cells_detailed
from repro.service.jobstore import JobStore
from repro.service.protocol import (
    PRIORITIES,
    PROTOCOL_VERSION,
    JobRecord,
    JobSpec,
    ProtocolError,
    cell_result_to_wire,
    decode_as,
    encode_value,
    stamp,
)

__all__ = ["SweepDaemon", "dispatch_order", "main"]

_MAX_BODY_BYTES = 64 * 1024 * 1024

#: the Retry-After hint of a 429 (seconds)
_RETRY_AFTER_S = 2.0


class _HttpError(Exception):
    def __init__(self, status: int, message: str, headers: dict | None = None):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


def _jsonl(record: dict) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def dispatch_order(jobs) -> list[JobRecord]:
    """The queued ``jobs`` by priority class, then submission order.

    ``jobs`` iterates in submission order, as the daemon's table does, and
    the sort is stable.
    """
    queued = [job for job in jobs if job.state == "queued"]
    return sorted(queued, key=lambda job: PRIORITIES.index(job.priority))


class SweepDaemon:
    """State + request handling for one daemon process."""

    def __init__(
        self,
        store: JobStore,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queued: int = 64,
        paused: bool = False,
    ):
        self.store = store
        self.host = host
        self.port = port
        self.paused = paused
        if max_queued < 1:
            raise ValueError(f"max_queued must be >= 1, got {max_queued}")
        #: admission bound on queued jobs; recovery bypasses it
        self.max_queued = max_queued
        #: jobs this process has dispatched (each one's start_seq)
        self.dispatched = 0
        #: every job by id, in submission order: the table is the queue
        self.jobs: dict[str, JobRecord] = {}
        #: live result feeds per job, fed by publish() until the job_end
        self._subscribers: dict[str, list[queue.SimpleQueue]] = {}
        self._next_number = 1
        self._lock = threading.Lock()
        #: notified on submit and resume; the dispatcher waits on it
        self._wake = threading.Condition(self._lock)
        self._started = time.time()
        self.url: str | None = None

    # -- lifecycle ---------------------------------------------------------------

    def recover(self) -> int:
        """Replay the store; every job without a job_end is queued. Returns count.

        Recovered jobs bypass the admission bound: they were accepted
        before the restart, and the bound gates new work only.
        """
        with self._lock:
            self.jobs = self.store.recover()  # journal order == submission order
            self._next_number = self.store.next_job_number()
            return sum(not job.terminal for job in self.jobs.values())

    def serve(self) -> None:
        """Bind, advertise the endpoint, and serve until interrupted."""
        server = ThreadingHTTPServer((self.host, self.port), _Handler)
        server.sweep = self
        self.url = f"http://{self.host}:{server.server_address[1]}"
        self.store.write_endpoint(self.url)
        print(f"repro sweep service listening on {self.url}", flush=True)
        threading.Thread(target=self._dispatch_loop, daemon=True).start()
        try:
            server.serve_forever()
        finally:
            server.server_close()

    # -- dispatch ----------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        """Run queued jobs one at a time; sleep until a submit or resume."""
        while True:
            with self._lock:
                while self.paused or (job := self._start_next()) is None:
                    self._wake.wait()
            self._run_job(job)

    def _start_next(self) -> JobRecord | None:
        """Mark the first job of :func:`dispatch_order` running (under the lock)."""
        order = dispatch_order(self.jobs.values())
        if not order:
            return None
        job = order[0]
        self.dispatched += 1
        job.state = "running"
        job.started_at = time.time()
        job.start_seq = self.dispatched
        return job

    def _run_job(self, job: JobRecord) -> None:
        spec = job.spec
        with self._lock:
            # cells with a durable record from before a restart are not re-run
            done = self.store.cell_records(job.id)
        seq = len(done)
        remaining = [c for i, c in enumerate(spec.cells) if i not in done]
        # engine indices are remainder-relative; map back to spec positions
        spec_index = [i for i in range(len(spec.cells)) if i not in done]

        def publish(result) -> None:
            # Called on this thread by the engine, once per finished cell.
            nonlocal seq
            result = dataclasses.replace(result, index=spec_index[result.index])
            with self._lock:
                rec = cell_result_to_wire(result, seq)
                seq += 1
                self.store.append_result(job.id, rec)
                job.completed += 1
                self._fanout(job.id, rec)

        try:
            replayed = [
                dataclasses.replace(
                    decode_as(rec["result"], CellResult), source="replay"
                )
                for rec in done.values()
            ]
            results, engine = run_cells_detailed(
                remaining,
                jobs=spec.jobs,
                cache=spec.cache,
                policy=spec.policy,
                use_journal=spec.use_journal,
                on_result=publish,
            )
            report = ExecutionReport.of(
                [*replayed, *results],
                jobs=spec.jobs,
                cached=spec.cache is not None,
                wall_time_s=engine.wall_time_s,
                cache_errors=engine.cache_errors,
            )
            state, error = "done", None
        except Exception as exc:  # engine-level failure, not a cell failure
            report = None
            state, error = "failed", f"{type(exc).__name__}: {exc}"
        with self._lock:
            self._end(job, state, report, error)

    def _end(self, job: JobRecord, state: str, report, error=None) -> None:
        """Make ``job`` terminal: one durable job_end, then its subscribers.

        The record's ``job`` status is what recovery reads back, so the
        job is terminal exactly when this append is durable.
        """
        job.state = state
        job.error = error
        job.finished_at = time.time()
        end = {
            "kind": "job_end",
            "id": job.id,
            "state": state,
            "error": job.error,
            "report": encode_value(report),
            "job": job.status_wire(),
        }
        self.store.append_result(job.id, end)
        self._fanout(job.id, end)
        self._subscribers.pop(job.id, None)

    def _fanout(self, job_id: str, rec: dict) -> None:
        for feed in self._subscribers.get(job_id, ()):
            feed.put(rec)

    # -- routing -----------------------------------------------------------------

    def route(self, method: str, path: str, body: bytes):
        """Answer one request: ``(status, JSON payload or record stream)``.

        Runs under the lock, apart from a result stream, which takes it
        itself when first read (:meth:`_results`).
        """
        parts = [p for p in path.split("/") if p]
        if parts[:1] != ["v1"]:
            raise _HttpError(404, f"unknown path {path!r}")
        tail = parts[1:]
        with self._lock:
            if tail == ["health"] and method == "GET":
                return 200, self._health()
            if tail == ["jobs"] and method == "POST":
                return 201, self._submit(body)
            if tail == ["jobs"] and method == "GET":
                return 200, {"jobs": [j.status_wire() for j in self.jobs.values()]}
            if len(tail) == 2 and tail[0] == "jobs" and method == "GET":
                job = self._job_or_404(tail[1])
                return 200, {**job.status_wire(), "position": self._position(job)}
            if len(tail) == 3 and tail[0] == "jobs" and tail[2] == "results":
                if method != "GET":
                    raise _HttpError(405, "results endpoint is GET-only")
                return 200, self._results(self._job_or_404(tail[1]))
            if len(tail) == 3 and tail[0] == "jobs" and tail[2] == "cancel":
                if method != "POST":
                    raise _HttpError(405, "cancel endpoint is POST-only")
                return 200, self._cancel(self._job_or_404(tail[1]))
            if tail == ["control", "pause"] and method == "POST":
                self.paused = True
                return 200, {"paused": True}
            if tail == ["control", "resume"] and method == "POST":
                self.paused = False
                self._wake.notify()
                return 200, {"paused": False}
        raise _HttpError(404, f"no route for {method} {path!r}")

    def _job_or_404(self, job_id: str) -> JobRecord:
        job = self.jobs.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        return job

    def _position(self, job: JobRecord) -> int | None:
        """Global dispatch distance of a queued job (0 = next), else None."""
        ids = [queued.id for queued in dispatch_order(self.jobs.values())]
        return ids.index(job.id) if job.id in ids else None

    def _health(self) -> dict:
        queued = dispatch_order(self.jobs.values())
        return {
            "status": "ok",
            "paused": self.paused,
            "uptime_s": round(time.time() - self._started, 3),
            "jobs": len(self.jobs),
            "queued": len(queued),
            "running": sum(job.state == "running" for job in self.jobs.values()),
            "max_queued": self.max_queued,
            "by_priority": {
                p: sum(job.priority == p for job in queued) for p in PRIORITIES
            },
            "dispatched": self.dispatched,
            **stamp(),
            "protocol": PROTOCOL_VERSION,
        }

    def _submit(self, body: bytes) -> dict:
        try:
            spec = decode_as(json.loads(body.decode("utf-8")), JobSpec)
        except (UnicodeDecodeError, json.JSONDecodeError, ProtocolError) as exc:
            raise _HttpError(400, f"bad job spec: {exc}") from None
        queued = sum(job.state == "queued" for job in self.jobs.values())
        if queued >= self.max_queued:
            raise _HttpError(
                429,
                f"queue full ({queued}/{self.max_queued} jobs waiting); "
                f"retry in {_RETRY_AFTER_S:g}s",
                headers={"Retry-After": f"{_RETRY_AFTER_S:g}"},
            )
        job = JobRecord.new(f"j{self._next_number:06d}", spec)
        self._next_number += 1  # spent even if the append fails
        self.store.append_submit(job)  # durable before the table holds it
        self.jobs[job.id] = job
        self._wake.notify()
        return {
            "id": job.id,
            "state": job.state,
            "priority": job.priority,
            "cells": len(spec.cells),
            "position": self._position(job),
        }

    def _cancel(self, job: JobRecord) -> dict:
        if job.state != "queued":
            raise _HttpError(
                409, f"job {job.id} is {job.state}; only a queued job cancels"
            )
        self._end(job, "cancelled", None)
        return job.status_wire()

    def _results(self, job: JobRecord):
        """The job's stream: its durable records, then a live feed to job_end.

        A generator, so nothing happens until the first read: then the
        snapshot and the subscription share one critical section, so no
        record is missed or sent twice. Closing the stream (the handler
        does when it stops writing) unsubscribes its feed.
        """
        feed = queue.SimpleQueue()
        with self._lock:
            records = self.store.result_records(job.id)
            live = not job.terminal
            if live:
                self._subscribers.setdefault(job.id, []).append(feed)
        try:
            # the feed never yields the sentinel: the stream ends at job_end
            for rec in itertools.chain(records, iter(feed.get, None) if live else ()):
                yield rec
                if rec.get("kind") == "job_end":
                    return
        finally:
            with self._lock:
                feeds = self._subscribers.get(job.id, [])
                if feed in feeds:
                    feeds.remove(feed)


class _Handler(BaseHTTPRequestHandler):
    """One request: read the bounded body, route it, write JSON or JSONL."""

    def _handle(self) -> None:
        try:
            status, payload = self.server.sweep.route(
                self.command, self.path.split("?", 1)[0], self._body()
            )
            if isinstance(payload, dict):
                self._send_json(status, payload)
            else:
                try:
                    self._send_stream(payload)
                finally:
                    payload.close()  # a hung-up client's feed goes with it
        except _HttpError as exc:
            self._send_json(exc.status, {"error": str(exc)}, exc.headers)
        except ConnectionError:
            pass  # the client hung up
        except Exception as exc:  # never take the daemon down for a request
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    do_GET = do_POST = _handle

    def _body(self) -> bytes:
        text = (self.headers.get("Content-Length") or "0").strip()
        if not text.isdecimal():
            raise _HttpError(400, f"malformed Content-Length {text!r}")
        if int(text) > _MAX_BODY_BYTES:
            raise _HttpError(413, f"body of {text} bytes exceeds limit")
        return self.rfile.read(int(text))

    def _send_json(self, status: int, payload: dict, headers=None) -> None:
        body = _jsonl(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_stream(self, records) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        for rec in records:
            self.wfile.write(_jsonl(rec))

    def send_error(self, code, message=None, explain=None) -> None:
        # the base class's own refusals (bad request line, 501) in JSON too
        self._send_json(code, {"error": message or self.responses[code][0]})

    def log_message(self, format, *args) -> None:
        pass  # no per-request access log


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.daemon",
        description="Long-lived sweep service: accepts, prioritizes, and "
        "streams experiment sweeps over a localhost HTTP+JSONL API.",
    )
    parser.add_argument(
        "--store",
        default=".repro-service",
        metavar="DIR",
        help="job-store directory (journal, result streams, endpoint file); "
        "restarting against the same store recovers unfinished jobs",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port (0 = ephemeral; the bound URL is printed and written "
        "to <store>/endpoint either way)",
    )
    parser.add_argument(
        "--max-queued",
        type=int,
        default=64,
        metavar="N",
        help="admission bound: queued jobs beyond N are rejected with "
        "HTTP 429 + Retry-After (default 64)",
    )
    parser.add_argument(
        "--paused",
        action="store_true",
        help="start with dispatch held; release via POST /v1/control/resume",
    )
    parser.add_argument(
        "--version", action="version", version=version_blurb("repro-service")
    )
    args = parser.parse_args(argv)

    daemon = SweepDaemon(
        JobStore(args.store),
        host=args.host,
        port=args.port,
        max_queued=args.max_queued,
        paused=args.paused,
    )
    recovered = daemon.recover()
    if recovered:
        print(f"recovered {recovered} unfinished job(s) from {args.store}", flush=True)
    if daemon.store.undecodable:
        skipped = ", ".join(daemon.store.undecodable)
        print(f"not replaying undecodable job(s) {skipped}", flush=True)
    try:
        daemon.serve()
    except KeyboardInterrupt:
        # Every durable write is already fsynced: leave as SIGKILL would,
        # taking a running job's workers along, since the interpreter's
        # own shutdown would join them and wait for their cells.
        for worker in multiprocessing.active_children():
            worker.kill()
        os._exit(0)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
