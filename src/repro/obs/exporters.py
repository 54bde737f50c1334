"""Exporters: the one JSONL stream writer and CSV flatteners.

JSONL is the primary format (one self-describing record per line, schema
in the header — see :mod:`repro.obs.schema`); CSV is a convenience export
for spreadsheet/pandas consumers, one file per time-series kind.
"""

from __future__ import annotations

import csv
import json
import os
import re
import shutil

from repro.obs.schema import LATENCY_CLASSES, load_jsonl
from repro.util.jsonl import replacing

__all__ = ["dumps_record", "export_csv", "sanitize_name", "write_stream"]

_NAME_OK = re.compile(r"[^A-Za-z0-9._+-]+")


def sanitize_name(name: str) -> str:
    """Collapse anything filesystem-hostile in a run name to ``-``."""
    return _NAME_OK.sub("-", name).strip("-") or "run"


def dumps_record(rec: dict) -> str:
    """Canonical one-line JSON encoding (sorted keys, no whitespace).

    The stream is then byte-identical wherever it is produced — the
    seed-matrix determinism test diffs raw files across serial and
    worker-process runs.
    """
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def write_stream(records, out_dir, name: str, suffix: str = "", head=None) -> str:
    """Write ``records`` to ``out_dir/<sanitized name><suffix>.jsonl``.

    ``head`` is the path of a file of lines already encoded with
    :func:`dumps_record` (the collector's spool); its bytes go first,
    copied as they are. Creates ``out_dir`` and writes atomically
    (:func:`~repro.util.jsonl.replacing`), so a crash mid-export never
    leaves a half-stream behind for the report tool to choke on. Returns
    the path. Both the collector's obs stream and the guard's blackbox go
    through here.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{sanitize_name(name)}{suffix}.jsonl")
    with replacing(path) as fh:
        if head is not None:
            with open(head, "rb") as src:
                shutil.copyfileobj(src, fh)
        fh.write("".join(dumps_record(rec) + "\n" for rec in records).encode())
    return path


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def export_csv(jsonl_path, out_dir) -> list[str]:
    """Flatten one JSONL stream into per-kind CSV files.

    Produces (for the kinds present) ``<stem>_vc_samples.csv`` (one row
    per node per sample), ``<stem>_link_samples.csv`` (one row per link
    per sample), ``<stem>_dpa_flips.csv``, and ``<stem>_latency.csv``.
    Returns the written paths.
    """
    records = load_jsonl(jsonl_path)
    stem = os.path.splitext(os.path.basename(jsonl_path))[0]
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []

    vc_rows = []
    link_rows = []
    flip_rows = []
    lat_rows = []
    for rec in records:
        kind = rec.get("kind")
        if kind == "vc_sample":
            for node, (occ, n, f) in enumerate(
                zip(rec["occupancy"], rec["ovc_n"], rec["ovc_f"])
            ):
                vc_rows.append([rec["cycle"], node, occ, n, f])
        elif kind == "link_sample":
            for node, ports in enumerate(rec["flits"]):
                for port, flits in enumerate(ports):
                    link_rows.append([rec["cycle"], node, port, flits])
        elif kind == "dpa_flip":
            flip_rows.append(
                [rec["cycle"], rec["node"], int(rec["native_high"]),
                 rec["ovc_n"], rec["ovc_f"]]
            )
        elif kind == "latency_class":
            lat_rows.append(
                [rec["cls"], rec["count"], rec.get("mean", ""),
                 rec.get("p50", ""), rec.get("p95", ""), rec.get("p99", ""),
                 rec.get("max", "")]
            )

    if vc_rows:
        path = os.path.join(out_dir, f"{stem}_vc_samples.csv")
        _write_csv(path, ["cycle", "node", "occupancy", "ovc_n", "ovc_f"], vc_rows)
        written.append(path)
    if link_rows:
        path = os.path.join(out_dir, f"{stem}_link_samples.csv")
        _write_csv(path, ["cycle", "node", "port", "flits"], link_rows)
        written.append(path)
    if flip_rows:
        path = os.path.join(out_dir, f"{stem}_dpa_flips.csv")
        _write_csv(
            path, ["cycle", "node", "native_high", "ovc_n", "ovc_f"], flip_rows
        )
        written.append(path)
    if lat_rows:
        # Stable class order regardless of record order in the stream.
        order = {cls: i for i, cls in enumerate(LATENCY_CLASSES)}
        lat_rows.sort(key=lambda r: order.get(r[0], len(order)))
        path = os.path.join(out_dir, f"{stem}_latency.csv")
        _write_csv(
            path, ["class", "count", "mean", "p50", "p95", "p99", "max"], lat_rows
        )
        written.append(path)
    return written
