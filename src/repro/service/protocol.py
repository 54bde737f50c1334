"""Wire protocol for the sweep service: job records, stream records, priorities.

Everything the daemon and client exchange — and everything the job store
persists — is JSON, framed as one object per line (JSONL) on streaming
endpoints, and every repro object in it is the payload form of the one
codec, :func:`repro.experiments.cache.encode_value` /
:func:`~repro.experiments.cache.decode_value` (re-exported here). A cell
round-trips to an equal object with the same
:func:`~repro.experiments.cache.cache_key`, which is what makes
service-side and direct execution share one cache, and a streamed run is
the same JSON as a cached one. Decoding names nothing outside the
``repro`` package: the codec resolves only ``repro.*`` types and
:class:`~repro.experiments.scenarios.ScenarioSpec` accepts only registered
or ``repro.*`` builders, both checked before any import.

* ``POST /v1/jobs`` carries an encoded :class:`JobSpec`; the journal's
  submit event is an encoded :class:`JobRecord` with ``id`` kept at top
  level. Both classes validate in ``__post_init__``, so a decoded object
  is checked exactly as a constructed one is.
* A result stream holds ``cell`` records (:func:`cell_result_to_wire`:
  ``kind``/``seq``/``index`` plus the encoded
  :class:`~repro.experiments.parallel.CellResult`) and a single terminal
  ``job_end`` carrying the final job state and the encoded
  :class:`~repro.experiments.parallel.ExecutionReport`.

Versioning: every job record and stream header carries
:data:`PROTOCOL_VERSION`; the policy mirrors :mod:`repro.obs.schema` —
additive optional fields keep the version, renames/semantic changes bump
it, and readers reject versions they do not understand.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro._version import __version__, git_revision
from repro.experiments.cache import decode_as, decode_value, encode_value
from repro.experiments.parallel import Cell, CellResult, FaultPolicy
from repro.util.errors import ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "PRIORITIES",
    "JOB_STATES",
    "TERMINAL_STATES",
    "ProtocolError",
    "encode_value",
    "decode_value",
    "decode_as",
    "encode_cells",
    "decode_cells",
    "cell_result_to_wire",
    "JobSpec",
    "JobRecord",
    "stamp",
]

#: wire/schema version for job records and result streams
PROTOCOL_VERSION = 7

#: priority classes in scheduling order (index = class rank, 0 first)
PRIORITIES = ("high", "normal", "low")

#: job lifecycle states
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: states a job never leaves
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


def stamp() -> dict:
    """Build-provenance fields stamped into job records and headers."""
    return {"repro_version": __version__, "git_rev": git_revision() or ""}


# -- cells and stream records ------------------------------------------------------


def encode_cells(cells) -> list:
    """Encode a cell list for submission."""
    return [encode_value(c) for c in cells]


def decode_cells(payload) -> list[Cell]:
    """Decode a submitted cell list, type-checking each element."""
    if not isinstance(payload, list):
        raise ProtocolError("cells must be a list")
    return [decode_as(entry, Cell) for entry in payload]


def cell_result_to_wire(res: CellResult, seq: int) -> dict:
    """One ``cell`` stream record. ``seq`` is the job-local completion index.

    ``kind``/``seq``/``index`` stay at top level so the store and the
    stream dedup read them without decoding; ``result`` is the encoded
    :class:`~repro.experiments.parallel.CellResult`.
    """
    return {"kind": "cell", "seq": seq, "index": res.index, "result": encode_value(res)}


# -- job records -----------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """What to run: the client-controlled half of a job.

    ``jobs``/``cache``/``use_journal``/``policy`` semantics are exactly
    those of :func:`~repro.experiments.parallel.run_cells_detailed` — the
    daemon forwards them verbatim, which is the bit-identity guarantee.
    Paths (the cache and the policy's obs/guard directories) are
    interpreted by the daemon process, so clients send absolute paths
    (the stock client resolves them).
    """

    cells: list[Cell]
    priority: str = "normal"
    jobs: int = 1
    cache: str | None = None
    use_journal: bool = True
    policy: FaultPolicy | None = None

    def __post_init__(self) -> None:
        if self.priority not in PRIORITIES:
            raise ProtocolError(
                f"unknown priority {self.priority!r}; known: {PRIORITIES}"
            )
        if self.jobs < 1:
            raise ProtocolError(f"jobs must be >= 1, got {self.jobs}")
        if not self.cells:
            raise ProtocolError("a job needs at least one cell")
        if not all(isinstance(c, Cell) for c in self.cells):
            raise ProtocolError("every entry of a job's cells must be a Cell")


@dataclass
class JobRecord:
    """Daemon-side lifecycle record of one submitted job."""

    id: str
    spec: JobSpec
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: dispatch order among all jobs this daemon ran (scheduling proof)
    start_seq: int | None = None
    #: cells completed so far (streamed records)
    completed: int = 0
    error: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.spec, JobSpec):
            raise ProtocolError("a job record needs a JobSpec")
        if self.state not in JOB_STATES:
            raise ProtocolError(f"unknown job state {self.state!r}")

    @classmethod
    def new(cls, job_id: str, spec: JobSpec) -> "JobRecord":
        return cls(
            id=job_id,
            spec=spec,
            submitted_at=time.time(),
            meta={**stamp(), "protocol": PROTOCOL_VERSION},
        )

    @property
    def priority(self) -> str:
        return self.spec.priority

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_wire(self) -> dict:
        """The spec-free status object (job listings, GET /v1/jobs/<id>)."""
        return {
            "id": self.id,
            "state": self.state,
            "priority": self.priority,
            "cells": len(self.spec.cells),
            "completed": self.completed,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "start_seq": self.start_seq,
            "error": self.error,
            "meta": dict(self.meta),
        }
