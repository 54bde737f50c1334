"""Append-only, torn-write-tolerant JSON Lines files.

The one framing the sweep journal (:class:`~repro.experiments.cache.SweepJournal`)
and the service's job journal and result streams
(:class:`~repro.service.jobstore.JobStore`) share: every record is
*newline-framed* (leading and trailing ``\\n``) and fsynced. If a previous
append was torn mid-line, the leading newline terminates the damaged line
so the next record still lands parseable on its own line; the reader skips
the damaged line and the blank lines the framing produces. A process
killed at any instant therefore loses at most the record it was writing.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections.abc import Iterator

__all__ = ["append_record", "read_records"]


def append_record(path: str | os.PathLike, obj) -> None:
    """Append ``obj`` as one framed line (keys sorted) and fsync it."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n" + json.dumps(obj, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def read_records(path: str | os.PathLike) -> Iterator:
    """Parsed records in append order; a missing file yields nothing."""
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except OSError:
        return
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            yield json.loads(line)
        except ValueError:
            continue  # torn tail from an interrupted append
