"""Schema for the observability JSONL stream.

One run produces one JSONL file: a ``header`` record, then time-ordered
``dpa_init`` / ``dpa_flip`` / ``vc_sample`` / ``link_sample`` records,
then the finalize-time ``latency_class`` records and a single trailing
``summary``. Every record carries ``kind``; the header carries the schema
version so readers can reject streams they do not understand.

Record kinds (``kind`` → required fields):

``header``
    ``schema`` (int, == :data:`SCHEMA_VERSION`), ``name`` (str),
    ``width`` / ``height`` / ``num_nodes`` (int), ``sample_period``
    (int), ``start_cycle`` (int). Also carries the optional provenance
    fields ``repro_version`` / ``git_rev`` (str) and the optional
    ``topology`` (str: ``mesh`` / ``torus`` / ``ring``; a stream without
    it is a mesh) — additive, so they did not bump the schema version
    (validators ignore extra fields).
``dpa_init``
    ``cycle`` (int), ``native_high`` (list[bool], one per node) — the
    DPA state when the collector was installed, so the flip stream
    reconstructs an absolute timeline.
``dpa_flip``
    ``cycle`` / ``node`` (int), ``native_high`` (bool), ``ovc_n`` /
    ``ovc_f`` (int) — one per priority-state *transition* (the
    hysteresis timeline of paper Fig. 11).
``vc_sample``
    ``cycle`` (int), ``occupancy`` / ``ovc_n`` / ``ovc_f``
    (list[int], one per node) — periodic snapshot of buffered flits and
    native/foreign occupied-VC counters.
``link_sample``
    ``cycle`` (int), ``flits`` (list of 5-int lists, one per node) —
    flits sent per output port *since the previous sample* (port 0 is
    the ejection link into the local NI).
``latency_class``
    ``cls`` (one of :data:`LATENCY_CLASSES`), ``count`` (int), and —
    when ``count > 0`` — ``mean`` / ``p50`` / ``p95`` / ``p99`` /
    ``max`` (float) and ``hist`` (list[int], log2 latency buckets:
    ``hist[i]`` counts packets with latency in ``[2^i, 2^(i+1))``).
``summary``
    ``cycle`` (int, end of run), ``samples`` / ``events`` /
    ``dpa_flips`` (int), ``link_util`` (object).

A second stream flavour is the runtime guard's *crash blackbox*
(``<name>_blackbox.jsonl``, written by :mod:`repro.noc.guard` on a
violation): a ``guard_header`` record, the last-K kernel events as
``guard_event`` records, per-busy-router ``router_snapshot`` records, and
a single trailing ``guard_violation``. :func:`validate_stream` detects
the flavour from the first record.

``guard_header``
    ``schema`` (int), ``name`` / ``mode`` / ``topology`` (str),
    ``width`` / ``height`` / ``num_nodes`` / ``depth`` (ring capacity) /
    ``start_cycle`` (int).
``guard_event``
    ``cycle`` (int), ``event`` (str, a :class:`~repro.noc.trace.KernelTrace`
    method name), ``args`` (list, that event's arguments after the cycle).
``router_snapshot``
    ``cycle`` / ``node`` / ``busy_vcs`` / ``ovc_n`` / ``ovc_f`` (int),
    ``native_high`` (bool), ``vcs`` (list of per-VC objects),
    ``credits`` / ``owners`` (list of per-port lists).
``guard_violation``
    ``cycle`` (int), ``reason`` / ``message`` (str), ``ring`` (list,
    the wait-graph cycle for deadlocks, else empty), ``buffered_total``
    / ``packets_in_flight`` / ``queued`` (int).

Schema evolution policy: adding a new record kind or an *optional* field
is backward-compatible and keeps the version; renaming/removing fields or
changing semantics bumps :data:`SCHEMA_VERSION`. Validators here reject
unknown kinds and missing fields but ignore extra fields, so version-1
readers tolerate forward-compatible extensions.
"""

from __future__ import annotations

import json

from repro.util.errors import ReproError

__all__ = [
    "SCHEMA_VERSION",
    "LATENCY_CLASSES",
    "RECORD_KINDS",
    "ObsSchemaError",
    "validate_record",
    "validate_stream",
    "load_jsonl",
]

#: current JSONL schema version (see module docstring for the policy)
SCHEMA_VERSION = 1

#: packet classes the latency histograms are keyed by: ``native`` /
#: ``foreign`` by destination-region membership, ``global`` for packets
#: flagged to ride the global VCs (a subset of the other two)
LATENCY_CLASSES = ("native", "foreign", "global")

_BOOL = (bool,)
_INT = (int,)          # validators run on json.loads output: no numpy here
_NUM = (int, float)
_STR = (str,)
_LIST = (list,)
_OBJ = (dict,)

#: kind -> {field: allowed types}; extra fields are always permitted
RECORD_KINDS: dict[str, dict[str, tuple]] = {
    "header": {
        "schema": _INT,
        "name": _STR,
        "width": _INT,
        "height": _INT,
        "num_nodes": _INT,
        "sample_period": _INT,
        "start_cycle": _INT,
    },
    "dpa_init": {"cycle": _INT, "native_high": _LIST},
    "dpa_flip": {
        "cycle": _INT,
        "node": _INT,
        "native_high": _BOOL,
        "ovc_n": _INT,
        "ovc_f": _INT,
    },
    "vc_sample": {
        "cycle": _INT,
        "occupancy": _LIST,
        "ovc_n": _LIST,
        "ovc_f": _LIST,
    },
    "link_sample": {"cycle": _INT, "flits": _LIST},
    "latency_class": {"cls": _STR, "count": _INT},
    "summary": {
        "cycle": _INT,
        "samples": _INT,
        "events": _INT,
        "dpa_flips": _INT,
        "link_util": _OBJ,
    },
    "guard_header": {
        "schema": _INT,
        "name": _STR,
        "mode": _STR,
        "width": _INT,
        "height": _INT,
        "num_nodes": _INT,
        "topology": _STR,
        "depth": _INT,
        "start_cycle": _INT,
    },
    "guard_event": {"cycle": _INT, "event": _STR, "args": _LIST},
    "router_snapshot": {
        "cycle": _INT,
        "node": _INT,
        "busy_vcs": _INT,
        "native_high": _BOOL,
        "ovc_n": _INT,
        "ovc_f": _INT,
        "vcs": _LIST,
        "credits": _LIST,
        "owners": _LIST,
    },
    "guard_violation": {
        "cycle": _INT,
        "reason": _STR,
        "message": _STR,
        "ring": _LIST,
        "buffered_total": _INT,
        "packets_in_flight": _INT,
        "queued": _INT,
    },
}

#: latency_class fields required whenever ``count > 0``
_LATENCY_STAT_FIELDS = ("mean", "p50", "p95", "p99", "max")


class ObsSchemaError(ReproError, ValueError):
    """An observability record or stream violates the schema."""


def validate_record(rec: object, lineno: int | None = None) -> str:
    """Validate one decoded record; returns its kind.

    Raises :class:`ObsSchemaError` naming the offending field (and the
    1-based ``lineno`` when given, so CI failures point at the line).
    """
    where = f" (line {lineno})" if lineno is not None else ""
    if not isinstance(rec, dict):
        raise ObsSchemaError(f"record is not an object{where}: {rec!r}")
    kind = rec.get("kind")
    fields = RECORD_KINDS.get(kind)
    if fields is None:
        raise ObsSchemaError(f"unknown record kind {kind!r}{where}")
    for name, types in fields.items():
        if name not in rec:
            raise ObsSchemaError(f"{kind} record missing field {name!r}{where}")
        value = rec[name]
        # bool is an int subclass; an int-typed field must not accept it.
        if types is _INT and isinstance(value, bool):
            raise ObsSchemaError(
                f"{kind}.{name} must be an integer, got bool{where}"
            )
        if not isinstance(value, types):
            raise ObsSchemaError(
                f"{kind}.{name} has type {type(value).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}{where}"
            )
    if kind == "latency_class":
        if rec["cls"] not in LATENCY_CLASSES:
            raise ObsSchemaError(f"unknown latency class {rec['cls']!r}{where}")
        if rec["count"] > 0:
            for name in _LATENCY_STAT_FIELDS:
                if not isinstance(rec.get(name), (int, float)):
                    raise ObsSchemaError(
                        f"latency_class({rec['cls']}) with count>0 missing "
                        f"numeric field {name!r}{where}"
                    )
            if not isinstance(rec.get("hist"), list):
                raise ObsSchemaError(
                    f"latency_class({rec['cls']}) with count>0 missing "
                    f"'hist' list{where}"
                )
    return kind


#: kinds whose ``cycle`` must never decrease within a stream
_TIME_ORDERED = (
    "dpa_init",
    "dpa_flip",
    "vc_sample",
    "link_sample",
    "guard_event",
    "router_snapshot",
    "guard_violation",
)


def validate_stream(records) -> dict:
    """Validate a full record sequence; returns per-kind counts.

    Structural rules beyond per-record validation: the first record is a
    ``header`` or ``guard_header`` with the current
    :data:`SCHEMA_VERSION` (its kind selects the stream flavour), and the
    ``cycle`` fields of the time-ordered kinds never decrease. An obs
    stream must close with exactly one trailing ``summary``; a guard
    blackbox with exactly one trailing ``guard_violation``.
    """
    counts: dict[str, int] = {}
    last_cycle = None
    kinds: list[str] = []
    for lineno, rec in enumerate(records, start=1):
        kind = validate_record(rec, lineno)
        kinds.append(kind)
        counts[kind] = counts.get(kind, 0) + 1
        if lineno == 1:
            if kind not in ("header", "guard_header"):
                raise ObsSchemaError(f"stream must start with a header, got {kind!r}")
            if rec["schema"] != SCHEMA_VERSION:
                raise ObsSchemaError(
                    f"unsupported schema version {rec['schema']} "
                    f"(reader supports {SCHEMA_VERSION})"
                )
        elif kind in ("header", "guard_header"):
            raise ObsSchemaError(f"duplicate header at line {lineno}")
        if kind in _TIME_ORDERED:
            cycle = rec["cycle"]
            if last_cycle is not None and cycle < last_cycle:
                raise ObsSchemaError(
                    f"cycle went backwards at line {lineno}: "
                    f"{cycle} after {last_cycle}"
                )
            last_cycle = cycle
    if not kinds:
        raise ObsSchemaError("empty stream (no records)")
    terminal = "guard_violation" if kinds[0] == "guard_header" else "summary"
    if counts.get(terminal, 0) != 1 or kinds[-1] != terminal:
        raise ObsSchemaError(
            f"stream must end with exactly one {terminal} record"
        )
    return counts


def load_jsonl(path) -> list[dict]:
    """Decode a JSONL file into a list of records (no validation)."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ObsSchemaError(f"invalid JSON at {path}:{lineno}: {exc}") from exc
    return records
