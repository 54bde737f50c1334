"""Durable job store: append-only journal + per-job result streams.

Layout under the store root::

    jobs.jsonl            append-only job journal (submit/state events)
    results/<job>.jsonl   per-job result stream (cell records + job_end)
    endpoint              the daemon's bound URL (written on startup)

Both JSONL files are written and read through :mod:`repro.util.jsonl` —
every append is newline-framed (leading *and* trailing ``\\n``) and
fsynced, so a torn write damages at most the line it interrupted, and
that line fails to parse and is skipped on replay. A
daemon killed at any instant therefore recovers to a consistent state:
the journal replays to the last durable job event, and a result stream
replays to the last durable cell record (an interrupted cell is simply
re-run — completed cells are never duplicated because recovery reads the
stream before scheduling the remainder).

The journal records two event kinds::

    {"event": "submit", "v": 3, "id": ..., "job": <encoded JobRecord>}
    {"event": "state",  "v": 3, "id": ..., "state": ..., ...extras}

The submit event's ``job`` is the codec payload of the whole record, spec
included (:func:`repro.experiments.cache.encode_value`); ``id`` sits at
top level in both kinds, so numbering reads it without decoding. A submit
event written under another protocol version is never decoded: the
codec's drop rule would replay it with whatever fields survive, so it is
listed as undecodable instead.

Replay folds state events over submit events; jobs whose folded state is
non-terminal (``queued``/``running``) are the daemon's recovery set.
Result streams hold the same ``cell`` records the streaming API serves
(:func:`~repro.service.protocol.cell_result_to_wire`), so a late client
can replay a finished job's stream purely from disk.
"""

from __future__ import annotations

import os
import pathlib

from repro.service.protocol import (
    PROTOCOL_VERSION,
    JobRecord,
    ProtocolError,
    decode_as,
    encode_value,
)
from repro.util.jsonl import append_record, read_records, write_text_atomic

__all__ = ["JobStore"]


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

    def append_state(self, job_id: str, state: str, **extra) -> None:
        rec = {"event": "state", "v": PROTOCOL_VERSION, "id": job_id, "state": state}
        rec.update(extra)
        append_record(self.journal_path, rec)

    def recover(self) -> dict[str, JobRecord]:
        """Replay the journal into the last-known record per job, by id.

        Submit events written under another :data:`PROTOCOL_VERSION`, or
        whose records no longer decode (e.g. a cell type from a removed
        module, or any malformed payload), are dropped with their job id
        noted in :attr:`undecodable` rather than failing the whole
        recovery.
        """
        jobs: dict[str, JobRecord] = {}
        self.undecodable: list[str] = []
        for rec in read_records(self.journal_path):
            if not isinstance(rec, dict):
                continue
            event = rec.get("event")
            if event == "submit":
                try:
                    if rec.get("v") != PROTOCOL_VERSION:
                        raise ProtocolError(f"protocol version {rec.get('v')!r}")
                    job = decode_as(rec.get("job"), JobRecord)
                except ProtocolError:
                    if isinstance(rec.get("id"), str):
                        self.undecodable.append(rec["id"])
                    continue
                jobs[job.id] = job
            elif event == "state":
                job = jobs.get(rec.get("id"))
                if job is None:
                    continue
                state = rec.get("state")
                if isinstance(state, str):
                    job.state = state
                for attr in ("started_at", "finished_at", "start_seq", "error"):
                    if attr in rec:
                        setattr(job, attr, rec[attr])
        # completed counters come from the durable result streams, not the
        # journal, so they can never claim more than what is replayable
        for job in jobs.values():
            job.completed = len(self.cell_records(job.id))
        return jobs

    def next_job_number(self) -> int:
        """1 + the highest job number ever journaled (ids are ``j<N>``).

        Every event's top-level ``id`` counts, decodable or not, so a new
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
        return {
            r["index"]: r
            for r in self.result_records(job_id)
            if r.get("kind") == "cell" and isinstance(r.get("index"), int)
        }

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
