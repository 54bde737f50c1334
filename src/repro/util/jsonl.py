"""The package's two file-write disciplines: framed appends and atomic replaces.

Append-only, torn-write-tolerant JSON Lines files are the one framing the
sweep journal (:class:`~repro.experiments.cache.SweepJournal`) and the
service's job journal and result streams
(:class:`~repro.service.jobstore.JobStore`) share: every record is
*newline-framed* (leading and trailing ``\\n``) and fsynced. If a previous
append was torn mid-line, the leading newline terminates the damaged line
so the next record still lands parseable on its own line; the reader skips
the damaged line and the blank lines the framing produces. A process
killed at any instant therefore loses at most the record it was writing.

Whole files — cache entries, obs streams, result tables, the daemon's
endpoint — are replaced with :func:`write_text_atomic`, or, when written
in pieces, with :func:`replacing`.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
from collections.abc import Iterator
from typing import BinaryIO

__all__ = ["append_record", "read_records", "replacing", "write_text_atomic"]


@contextlib.contextmanager
def replacing(path: str | os.PathLike) -> Iterator[BinaryIO]:
    """A binary file that replaces ``path`` when the block exits cleanly.

    The bytes go to a temp file of its own in the target's directory
    (random name, exclusive create, the umask's usual permissions), which
    ``os.replace`` then renames over ``path``, so a reader sees the old
    file or the new one; two concurrent writers of one path never share a
    temp file, and a block that raises removes its own.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "xb")  # exclusive: the file is this call's alone
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) through :func:`replacing`."""
    with replacing(path) as fh:
        fh.write(text.encode("utf-8"))


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
