"""Durable job store: a submit journal + per-job result streams.

Layout under the store root::

    jobs.jsonl            append-only job journal (one submit event per job)
    results/<job>.jsonl   per-job result stream (cell records + job_end)
    endpoint              the daemon's bound URL (written on startup)

Each fact about a job is written once. The journal says a job was
accepted; its result stream says which cells finished and how the job
ended. Both JSONL files are written and read through
:mod:`repro.util.jsonl` — every append is newline-framed (leading *and*
trailing ``\\n``) and fsynced, so a torn write damages at most the line it
interrupted, and that line fails to parse and is skipped on replay. A
daemon killed at any instant therefore recovers to a consistent state:
every acknowledged submit replays, and a result stream replays to its
last durable record (an interrupted cell is simply re-run — completed
cells are never duplicated because recovery reads the stream before
scheduling the remainder).

The journal holds one event kind::

    {"event": "submit", "v": 5, "id": ..., "job": <encoded JobRecord>}

``job`` is the codec payload of the whole record, spec included
(:func:`repro.experiments.cache.encode_value`); ``id`` sits at top level,
so numbering reads it without decoding. A submit event written under
another protocol version is never decoded: the codec's drop rule would
replay it with whatever fields survive, so it is listed as undecodable
instead.

Replay reads each job's stream once. A job whose stream holds a
``job_end`` whose ``job`` status is terminal takes its state, times,
``start_seq`` and error from that status; every other job is ``queued``
— the daemon's recovery set (``running`` lives in the daemon's memory
only). Result streams hold the same ``cell`` records the streaming API
serves (:func:`~repro.service.protocol.cell_result_to_wire`), so a late
client can replay a finished job's stream purely from disk.
"""

from __future__ import annotations

import os
import pathlib

from repro.service.protocol import (
    PROTOCOL_VERSION,
    TERMINAL_STATES,
    JobRecord,
    ProtocolError,
    decode_as,
    encode_value,
)
from repro.util.jsonl import append_record, read_records, write_text_atomic

__all__ = ["JobStore"]


def _cells_by_index(records: list[dict]) -> dict[int, dict]:
    return {
        r["index"]: r
        for r in records
        if r.get("kind") == "cell" and isinstance(r.get("index"), int)
    }


class JobStore:
    """Filesystem-backed durability for the sweep service."""

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)
        self.journal_path = self.root / "jobs.jsonl"
        self.results_dir = self.root / "results"
        #: job ids whose journaled spec failed to decode on the last recover()
        self.undecodable: list[str] = []

    # -- journal ------------------------------------------------------------------

    def append_submit(self, record: JobRecord) -> None:
        append_record(
            self.journal_path,
            {
                "event": "submit",
                "v": PROTOCOL_VERSION,
                "id": record.id,
                "job": encode_value(record),
            },
        )

    def recover(self) -> dict[str, JobRecord]:
        """Replay the journal and each job's stream into records, by id.

        Submit events written under another :data:`PROTOCOL_VERSION`, or
        whose records no longer decode (e.g. a cell type from a removed
        module, or any malformed payload), are dropped with their job id
        noted in :attr:`undecodable` rather than failing the whole
        recovery.
        """
        jobs: dict[str, JobRecord] = {}
        self.undecodable: list[str] = []
        for rec in read_records(self.journal_path):
            if not isinstance(rec, dict) or rec.get("event") != "submit":
                continue
            try:
                if rec.get("v") != PROTOCOL_VERSION:
                    raise ProtocolError(f"protocol version {rec.get('v')!r}")
                job = decode_as(rec.get("job"), JobRecord)
            except ProtocolError:
                if isinstance(rec.get("id"), str):
                    self.undecodable.append(rec["id"])
                continue
            jobs[job.id] = job
        # progress and ending come from the durable result stream, so a job
        # never claims more than what is replayable
        for job in jobs.values():
            records = self.result_records(job.id)
            job.completed = len(_cells_by_index(records))
            status = next(
                (r.get("job") for r in records if r.get("kind") == "job_end"), None
            )
            if isinstance(status, dict) and status.get("state") in TERMINAL_STATES:
                for attr in (
                    "state", "started_at", "finished_at", "start_seq", "error"
                ):
                    setattr(job, attr, status.get(attr))
        return jobs

    def next_job_number(self) -> int:
        """1 + the highest job number ever journaled (ids are ``j<N>``).

        Every submit's top-level ``id`` counts, decodable or not, so a new
        job never reuses the id (and result stream) of an old one.
        """
        highest = 0
        for rec in read_records(self.journal_path):
            job_id = rec.get("id") if isinstance(rec, dict) else None
            if isinstance(job_id, str) and job_id.startswith("j"):
                try:
                    highest = max(highest, int(job_id[1:]))
                except ValueError:
                    continue
        return highest + 1

    # -- result streams ----------------------------------------------------------

    def result_path(self, job_id: str) -> pathlib.Path:
        return self.results_dir / f"{job_id}.jsonl"

    def append_result(self, job_id: str, record: dict) -> None:
        append_record(self.result_path(job_id), record)

    def result_records(self, job_id: str) -> list[dict]:
        """All durable records of a job's stream, in append order."""
        return [r for r in read_records(self.result_path(job_id)) if isinstance(r, dict)]

    def cell_records(self, job_id: str) -> dict[int, dict]:
        """Durable ``cell`` records by cell index (never to re-run)."""
        return _cells_by_index(self.result_records(job_id))

    # -- endpoint advertisement ---------------------------------------------------

    def write_endpoint(self, url: str) -> None:
        """Advertise the bound URL (atomic; read by clients and tests)."""
        self.root.mkdir(parents=True, exist_ok=True)
        write_text_atomic(self.root / "endpoint", url + "\n")

    def read_endpoint(self) -> str | None:
        try:
            return (self.root / "endpoint").read_text(encoding="utf-8").strip() or None
        except OSError:
            return None
