"""The sweep-service daemon: ``python -m repro.service.daemon``.

A single-process asyncio service that owns the experiment worker
processes and serves a localhost HTTP+JSONL API::

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

Execution model: the dispatch loop runs one job at a time — the
highest-priority queued job, FIFO within class — through the unmodified
:func:`~repro.experiments.parallel.run_cells_detailed` in a worker
thread; a job's own ``jobs`` fans its cells over worker processes. The
daemon adds scheduling, durability, and streaming *around* the engine,
never a different engine, which is what keeps service results
bit-identical to direct runs (same cache keys, same fault-policy
semantics, byte-identical obs JSONL).

Durability: every submit/state transition is journaled and every
completed cell appended to the job's result stream *before* clients see
it (:mod:`repro.service.jobstore`). On restart the daemon replays the
journal, re-enqueues every non-terminal job in original submission
order, and re-runs only cells without a durable result record — a killed
daemon never duplicates completed work and never loses an accepted job.

The HTTP implementation is deliberately minimal (stdlib asyncio only):
one request per connection, ``Connection: close``, streaming responses
are unframed JSONL flushed per record. The daemon binds 127.0.0.1 by
default and treats the socket as a local trust boundary, like the
worker-process pipes it wraps.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import time

from repro._version import version_blurb
from repro.experiments.parallel import run_cells_detailed
from repro.service.jobstore import JobStore
from repro.service.protocol import (
    PROTOCOL_VERSION,
    JobRecord,
    JobSpec,
    ProtocolError,
    cell_result_to_wire,
    decode_as,
    encode_value,
    stamp,
)
from repro.service.scheduler import PriorityScheduler, QueueFull

__all__ = ["SweepDaemon", "main"]

_MAX_BODY_BYTES = 64 * 1024 * 1024
_MAX_HEADER_BYTES = 64 * 1024

#: queue sentinel that tells a streaming subscriber to stop tailing
_STREAM_END = None


class _HttpError(Exception):
    def __init__(self, status: int, message: str, headers: dict | None = None):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


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
        self.scheduler = PriorityScheduler(max_queued=max_queued)
        self.jobs: dict[str, JobRecord] = {}
        self._subscribers: dict[str, set[asyncio.Queue]] = {}
        self._next_number = 1
        self._wake: asyncio.Event | None = None
        self._started = time.time()
        self.url: str | None = None

    # -- lifecycle ---------------------------------------------------------------

    def recover(self) -> int:
        """Replay the journal; re-enqueue non-terminal jobs. Returns count."""
        self.jobs = self.store.recover()
        self._next_number = self.store.next_job_number()
        requeued = 0
        for job in self.jobs.values():  # journal order == submission order
            if job.terminal:
                continue
            if job.state != "queued":
                job.state = "queued"
                self.store.append_state(job.id, "queued", recovered=True)
            self.scheduler.requeue(job)  # bypasses the admission bound
            requeued += 1
        return requeued

    async def serve(self) -> None:
        """Bind, advertise the endpoint, and run until cancelled."""
        self._wake = asyncio.Event()
        server = await asyncio.start_server(self._handle_conn, self.host, self.port)
        bound_port = server.sockets[0].getsockname()[1]
        self.url = f"http://{self.host}:{bound_port}"
        self.store.write_endpoint(self.url)
        print(f"repro sweep service listening on {self.url}", flush=True)
        dispatcher = asyncio.ensure_future(self._dispatch_loop())
        try:
            async with server:
                await server.serve_forever()
        finally:
            dispatcher.cancel()

    # -- dispatch ----------------------------------------------------------------

    def _kick(self) -> None:
        if self._wake is not None:
            self._wake.set()

    async def _dispatch_loop(self) -> None:
        """Run queued jobs one at a time; sleep until a submit or resume."""
        while True:
            self._wake.clear()
            job_id = None if self.paused else self.scheduler.next_job()
            if job_id is None:
                await self._wake.wait()
            else:
                await self._run_job(self.jobs[job_id])

    async def _run_job(self, job: JobRecord) -> None:
        job.state = "running"
        job.started_at = time.time()
        job.start_seq = self.scheduler.dispatched
        self.store.append_state(
            job.id, "running", started_at=job.started_at, start_seq=job.start_seq
        )
        loop = asyncio.get_running_loop()
        spec = job.spec
        done_indices = self.store.completed_indices(job.id)
        remaining = [c for i, c in enumerate(spec.cells) if i not in done_indices]
        # engine indices are remainder-relative; map back to spec positions
        spec_index = [i for i in range(len(spec.cells)) if i not in done_indices]
        seq = len(self.store.result_records(job.id))

        def publish(result) -> None:
            # Runs on the event loop: seq assignment, the durable append,
            # and subscriber fan-out stay ordered and race-free.
            nonlocal seq
            result = dataclasses.replace(result, index=spec_index[result.index])
            rec = cell_result_to_wire(result, seq)
            seq += 1
            self.store.append_result(job.id, rec)
            job.completed += 1
            self._fanout(job.id, rec)

        def on_result(result) -> None:
            # Called from the engine's thread, never the loop's; hop to
            # the loop so publish() is serialized.
            loop.call_soon_threadsafe(publish, result)

        try:
            if remaining:
                _results, report = await asyncio.to_thread(
                    run_cells_detailed,
                    remaining,
                    jobs=spec.jobs,
                    cache=spec.cache,
                    policy=spec.policy,
                    use_journal=spec.use_journal,
                    on_result=on_result,
                )
            else:
                from repro.experiments.parallel import ExecutionReport

                report = ExecutionReport(cells=0, jobs=spec.jobs)
            # Fold pre-crash completions into the report the client sees.
            if done_indices:
                report.cells = len(spec.cells)
                report.resumed += len(done_indices)
            job.state = "done"
            job.error = None
        except Exception as exc:  # engine-level failure, not a cell failure
            report = None
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
        job.finished_at = time.time()
        self.store.append_state(
            job.id, job.state, finished_at=job.finished_at, error=job.error
        )
        end = {
            "kind": "job_end",
            "id": job.id,
            "state": job.state,
            "error": job.error,
            "report": encode_value(report),
            "job": job.status_wire(),
        }
        self.store.append_result(job.id, end)
        self._fanout(job.id, end)
        self._close_stream(job.id)
        self.scheduler.finish(job.id)

    # -- streaming fan-out -------------------------------------------------------

    def _fanout(self, job_id: str, rec: dict) -> None:
        for queue in self._subscribers.get(job_id, ()):
            queue.put_nowait(rec)

    def _close_stream(self, job_id: str) -> None:
        for queue in self._subscribers.pop(job_id, ()):
            queue.put_nowait(_STREAM_END)

    # -- HTTP plumbing -----------------------------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
                await self._route(method, path, body, writer)
            except _HttpError as exc:
                await self._send_json(
                    writer, exc.status, {"error": str(exc)}, extra=exc.headers
                )
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
            except Exception as exc:  # never take the daemon down for a request
                try:
                    await self._send_json(
                        writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                    )
                except Exception:
                    pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "headers too large") from None
        if len(head) > _MAX_HEADER_BYTES:
            raise _HttpError(413, "headers too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, path, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _HttpError(400, f"malformed request line {lines[0]!r}") from None
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > _MAX_BODY_BYTES:
            raise _HttpError(413, f"body of {length} bytes exceeds limit")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path.split("?", 1)[0], body

    async def _send_json(self, writer, status, payload, extra=None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            "Connection": "close",
            **(extra or {}),
        }
        writer.write(self._head(status, headers) + body)
        await writer.drain()

    @staticmethod
    def _head(status: int, headers: dict) -> bytes:
        reason = _REASONS.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}"]
        lines += [f"{k}: {v}" for k, v in headers.items()]
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    # -- routing -----------------------------------------------------------------

    async def _route(self, method, path, body, writer) -> None:
        parts = [p for p in path.split("/") if p]
        if parts[:1] != ["v1"]:
            raise _HttpError(404, f"unknown path {path!r}")
        tail = parts[1:]
        if tail == ["health"] and method == "GET":
            await self._send_json(writer, 200, self._health())
        elif tail == ["jobs"] and method == "POST":
            await self._submit(body, writer)
        elif tail == ["jobs"] and method == "GET":
            await self._send_json(
                writer,
                200,
                {"jobs": [j.status_wire() for j in self.jobs.values()]},
            )
        elif len(tail) == 2 and tail[0] == "jobs" and method == "GET":
            job = self._job_or_404(tail[1])
            payload = job.status_wire()
            payload["position"] = self.scheduler.position(job.id)
            await self._send_json(writer, 200, payload)
        elif len(tail) == 3 and tail[:1] == ["jobs"] and tail[2] == "results":
            if method != "GET":
                raise _HttpError(405, "results endpoint is GET-only")
            await self._stream_results(self._job_or_404(tail[1]), writer)
        elif len(tail) == 3 and tail[:1] == ["jobs"] and tail[2] == "cancel":
            if method != "POST":
                raise _HttpError(405, "cancel endpoint is POST-only")
            await self._cancel(self._job_or_404(tail[1]), writer)
        elif tail == ["control", "pause"] and method == "POST":
            self.paused = True
            await self._send_json(writer, 200, {"paused": True})
        elif tail == ["control", "resume"] and method == "POST":
            self.paused = False
            self._kick()
            await self._send_json(writer, 200, {"paused": False})
        else:
            raise _HttpError(404, f"no route for {method} {path!r}")

    def _job_or_404(self, job_id: str) -> JobRecord:
        job = self.jobs.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        return job

    def _health(self) -> dict:
        return {
            "status": "ok",
            "paused": self.paused,
            "uptime_s": round(time.time() - self._started, 3),
            "jobs": len(self.jobs),
            **self.scheduler.snapshot(),
            **stamp(),
            "protocol": PROTOCOL_VERSION,
        }

    async def _submit(self, body: bytes, writer) -> None:
        try:
            spec = decode_as(json.loads(body.decode("utf-8")), JobSpec)
        except (UnicodeDecodeError, json.JSONDecodeError, ProtocolError) as exc:
            raise _HttpError(400, f"bad job spec: {exc}") from None
        job = JobRecord.new(f"j{self._next_number:06d}", spec)
        try:
            position = self.scheduler.submit(job)
        except QueueFull as exc:
            raise _HttpError(
                429,
                str(exc),
                headers={"Retry-After": f"{exc.retry_after_s:g}"},
            ) from None
        self._next_number += 1
        self.jobs[job.id] = job
        self.store.append_submit(job)
        self._kick()
        await self._send_json(
            writer,
            201,
            {
                "id": job.id,
                "state": job.state,
                "priority": job.priority,
                "cells": len(spec.cells),
                "position": position,
            },
        )

    async def _cancel(self, job: JobRecord, writer) -> None:
        if job.terminal:
            raise _HttpError(409, f"job {job.id} already {job.state}")
        if not self.scheduler.cancel(job.id):
            raise _HttpError(409, f"job {job.id} is running; cannot cancel")
        job.state = "cancelled"
        job.finished_at = time.time()
        self.store.append_state(job.id, "cancelled", finished_at=job.finished_at)
        end = {
            "kind": "job_end",
            "id": job.id,
            "state": "cancelled",
            "error": None,
            "report": None,
            "job": job.status_wire(),
        }
        self.store.append_result(job.id, end)
        self._fanout(job.id, end)
        self._close_stream(job.id)
        await self._send_json(writer, 200, job.status_wire())

    async def _stream_results(self, job: JobRecord, writer) -> None:
        # Subscribe before replaying the durable records: publish() runs
        # on this same loop, so nothing can land between the two steps,
        # and seq-dedup below makes the overlap harmless regardless.
        queue: asyncio.Queue | None = None
        if not job.terminal:
            queue = asyncio.Queue()
            self._subscribers.setdefault(job.id, set()).add(queue)
        try:
            writer.write(
                self._head(
                    200,
                    {"Content-Type": "application/x-ndjson", "Connection": "close"},
                )
            )
            seen_seq = set()
            ended = False
            for rec in self.store.result_records(job.id):
                if rec.get("kind") == "cell":
                    seen_seq.add(rec.get("seq"))
                elif rec.get("kind") == "job_end":
                    ended = True
                writer.write((json.dumps(rec, sort_keys=True) + "\n").encode("utf-8"))
            await writer.drain()
            while queue is not None and not ended:
                rec = await queue.get()
                if rec is _STREAM_END:
                    break
                if rec.get("kind") == "cell" and rec.get("seq") in seen_seq:
                    continue
                if rec.get("kind") == "job_end":
                    ended = True
                writer.write((json.dumps(rec, sort_keys=True) + "\n").encode("utf-8"))
                await writer.drain()
        finally:
            if queue is not None:
                subs = self._subscribers.get(job.id)
                if subs is not None:
                    subs.discard(queue)


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
        asyncio.run(daemon.serve())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
