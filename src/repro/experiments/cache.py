"""Content-addressed on-disk cache for experiment cells, and the JSON codec.

This module owns the package's two JSON rules:

* :func:`canonicalize` — the lossy, order-insensitive *identity* of a
  value, hashed into cache keys;
* :func:`encode_value` / :func:`decode_value` — the invertible *payload*
  form of the same type universe, used for everything that crosses a
  process, disk or socket boundary (cache entries, and the sweep
  service's job specs, journal events and result streams). Decoding only
  instantiates types from the ``repro`` package (:func:`is_repro_module`,
  checked before any import) and raises
  :class:`~repro.util.errors.ProtocolError` for every malformed shape.

They stay two functions on purpose: one codec serving both callers would
have to branch on which caller it serves.

Every experiment cell — one ``(scheme, scenario, effort, seed)``
simulation — is deterministic, so its :class:`~repro.experiments.runner.
ScenarioRun` can be cached on disk and reused across figures, ablations,
sweep replications, and repeated ``run_all`` invocations. The cache is
*content-addressed*: the key is a SHA-256 over a canonical JSON encoding
of everything that determines the result (``NocConfig``, ``DpaConfig``
and any other policy kwargs, the scheme, the scenario's rebuild spec, the
effort window, and the seed). Canonicalization makes the key

* stable across process restarts (no reliance on ``hash()``/``id()``),
* stable across dict insertion order (entries are sorted), and
* distinct for any changed config field (every dataclass field is keyed
  by name and included).

Entries are JSON files named by their key, holding the codec payload of
the run, written atomically (temp file + ``os.replace``) so concurrent
workers computing the same cell race benignly. Each entry embeds a
checksum of its payload; a corrupted, truncated or stale-version entry
fails verification and reads as a miss, so the cell is recomputed rather
than a bad result returned. ``CACHE_VERSION`` is part of every key, so an
entry of an older version is never even looked up; deleting the directory
is the whole of cache maintenance.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import importlib
import json
import os
import pathlib

from repro.experiments.runner import ScenarioRun
from repro.util.errors import ProtocolError
from repro.util.jsonl import append_record, read_records, write_text_atomic

__all__ = [
    "CACHE_VERSION",
    "canonicalize",
    "cache_key",
    "is_repro_module",
    "encode_value",
    "decode_value",
    "decode_as",
    "ResultCache",
    "SweepJournal",
]

#: Bump to invalidate every existing cache entry (key derivation or
#: payload schema change).
CACHE_VERSION = 2

#: marker key for non-plain JSON values in codec payloads; no repro
#: dataclass has a field with this name, so plain dicts never collide
_TAG = "__repro__"


def canonicalize(obj):
    """Reduce ``obj`` to a deterministic JSON-serializable structure.

    Handles the types that appear in cell descriptions: scalars, lists and
    tuples, dicts (sorted by canonicalized key, so insertion order never
    matters), enums (by class, member name, and value) and dataclasses
    (by class and per-field values, sorted by field name — *every* field
    participates, including ones excluded from ``__eq__``).
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return ["enum", type(obj).__name__, obj.name, canonicalize(obj.value)]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = sorted(f.name for f in dataclasses.fields(obj))
        return [
            "dataclass",
            type(obj).__name__,
            [[name, canonicalize(getattr(obj, name))] for name in fields],
        ]
    if isinstance(obj, dict):
        items = [[canonicalize(k), canonicalize(v)] for k, v in obj.items()]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return ["dict", items]
    if isinstance(obj, (list, tuple)):
        return ["seq", [canonicalize(x) for x in obj]]
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for cache keying: {obj!r}"
    )


def _digest(struct) -> str:
    blob = json.dumps(struct, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_key(cell) -> str:
    """Stable content hash of one :class:`~repro.experiments.parallel.Cell`."""
    return _digest(["cell", CACHE_VERSION, canonicalize(cell)])


# -- the payload codec -----------------------------------------------------------
# One invertible JSON form for every repro object that crosses a process,
# disk or socket boundary: cache entries here, and the sweep service's job
# specs, journal events and result streams (repro.service.protocol).


def is_repro_module(name: str) -> bool:
    """The one rule for code a payload may name: the ``repro`` package.

    Checked on the string before anything is imported, by the decoder for
    types and by :class:`~repro.experiments.scenarios.ScenarioSpec` for
    builders.
    """
    return name == "repro" or name.startswith("repro.")


def _type_ref(obj) -> str:
    cls = type(obj)
    return f"{cls.__module__}:{cls.__qualname__}"


def encode_value(obj):
    """Encode ``obj`` to a JSON-serializable structure, invertibly.

    Raises :class:`ProtocolError` for types outside the payload universe
    (the same things :func:`canonicalize` rejects, so anything that has a
    cache key also has a payload form).
    """
    # Enum before scalar: IntEnum/StrEnum members pass the isinstance
    # scalar check but must round-trip as their type, not their value.
    if isinstance(obj, enum.Enum):
        rec = {_TAG: "enum", "type": _type_ref(obj)}
        # Flag combinations may have no member name; their int value is
        # canonical. Plain members round-trip by name.
        name = getattr(obj, "name", None)
        if name is not None and name in type(obj).__members__:
            rec["name"] = name
        else:
            rec["value"] = encode_value(obj.value)
        return rec
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            _TAG: "dataclass",
            "type": _type_ref(obj),
            "fields": {
                f.name: encode_value(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, tuple):
        return {_TAG: "tuple", "items": [encode_value(x) for x in obj]}
    if isinstance(obj, list):
        return [encode_value(x) for x in obj]
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj) and _TAG not in obj:
            return {k: encode_value(v) for k, v in obj.items()}
        return {
            _TAG: "dict",
            "items": [[encode_value(k), encode_value(v)] for k, v in obj.items()],
        }
    raise ProtocolError(f"cannot encode {type(obj).__name__!r} as a payload: {obj!r}")


def _resolve_type(ref: str):
    module_name, _, qualname = ref.partition(":")
    if not is_repro_module(module_name):
        raise ProtocolError(f"payload names non-repro type {ref!r}")
    try:
        target = importlib.import_module(module_name)
    except ImportError as exc:
        raise ProtocolError(f"cannot resolve payload type {ref!r}: {exc}") from exc
    for part in qualname.split("."):
        target = getattr(target, part)
    # An attribute path can leave the package (a module a repro module
    # imports): the type itself must be defined in repro too.
    if not is_repro_module(getattr(target, "__module__", None) or ""):
        raise ProtocolError(f"payload type {ref!r} is not defined in repro")
    return target


def decode_value(obj):
    """Invert :func:`encode_value`.

    Every malformed shape raises :class:`ProtocolError` and nothing else,
    so a caller reading untrusted JSON catches exactly that. Compatibility
    is one rule: a dataclass field the class no longer has is dropped, and
    one the payload lacks takes its default.
    """
    try:
        return _decode(obj)
    except ProtocolError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise ProtocolError(
            f"malformed payload ({type(exc).__name__}: {exc})"
        ) from exc


def _decode(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [_decode(x) for x in obj]
    if not isinstance(obj, dict):
        raise ProtocolError(f"undecodable payload value: {obj!r}")
    tag = obj.get(_TAG)
    if tag is None:
        return {k: _decode(v) for k, v in obj.items()}
    if tag == "tuple":
        return tuple(_decode(x) for x in obj["items"])
    if tag == "dict":
        return {_decode(k): _decode(v) for k, v in obj["items"]}
    if tag == "enum":
        cls = _resolve_type(obj["type"])
        if not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
            raise ProtocolError(f"{obj['type']!r} is not an enum")
        if "name" in obj:
            return cls[obj["name"]]
        return cls(_decode(obj["value"]))
    if tag == "dataclass":
        cls = _resolve_type(obj["type"])
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            raise ProtocolError(f"{obj['type']!r} is not a dataclass")
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: _decode(v) for k, v in obj["fields"].items() if k in known})
    raise ProtocolError(f"unknown payload tag {tag!r}")


def decode_as(obj, cls: type):
    """:func:`decode_value`, then require an instance of ``cls``."""
    value = decode_value(obj)
    if not isinstance(value, cls):
        raise ProtocolError(
            f"payload decoded to {type(value).__name__}, expected {cls.__name__}"
        )
    return value


class ResultCache:
    """On-disk store of finished cells, one JSON file per key.

    Instances are cheap to construct (workers open their own); hit and
    miss totals are counted by the engine, in
    :class:`~repro.experiments.parallel.ExecutionReport`.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)

    def path_for(self, key: str) -> pathlib.Path:
        """Entry path; two-level fan-out keeps directories small."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> ScenarioRun | None:
        """Verified lookup: any parse/version/checksum failure is a miss.

        A detected-corrupt entry is deleted (best effort) so the caller's
        recomputation can overwrite it cleanly.
        """
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text())
            if entry["version"] != CACHE_VERSION or entry["key"] != key:
                raise ValueError("stale or mismatched cache entry")
            payload = entry["payload"]
            if _digest(canonicalize(payload)) != entry["sha256"]:
                raise ValueError("cache entry failed checksum")
            return decode_as(payload, ScenarioRun)
        except FileNotFoundError:
            return None
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, run: ScenarioRun) -> None:
        """Atomically persist ``run`` under ``key``."""
        payload = encode_value(run)
        entry = {
            "version": CACHE_VERSION,
            "key": key,
            "sha256": _digest(canonicalize(payload)),
            "payload": payload,
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_text_atomic(path, json.dumps(entry))

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))


class SweepJournal:
    """Append-only completion journal for one cell sweep (checkpoint/resume).

    A *sweep* is one ordered list of cells (one ``run_cells_detailed``
    call); its identity is a digest over the ordered cell keys
    (:meth:`key_for`), so re-invoking the same figure with the same
    arguments maps to the same journal file. As each cell completes, its
    cache key is appended as one JSON line; an interrupted sweep leaves a
    valid prefix behind, and the re-invocation restores those cells from
    the result cache instead of re-simulating them.

    The format is deliberately torn-write tolerant: a half-written final
    line fails to parse and is skipped, losing at most one cell's
    checkpoint. Journal files live under ``<cache>/journal/`` with a
    ``.jsonl`` suffix so they never collide with the ``*/*.json`` result
    entries.
    """

    def __init__(self, root: str | os.PathLike, sweep_key: str):
        self.sweep_key = sweep_key
        self.path = pathlib.Path(root) / "journal" / f"{sweep_key}.jsonl"

    @staticmethod
    def key_for(cell_keys) -> str:
        """Stable identity of an ordered cell-key list."""
        return _digest(["sweep", CACHE_VERSION, list(cell_keys)])

    def load(self) -> set[str]:
        """Cell keys recorded as completed (malformed lines are skipped)."""
        done: set[str] = set()
        for entry in read_records(self.path):
            if isinstance(entry, dict) and entry.get("status") == "ok":
                key = entry.get("key")
                if isinstance(key, str):
                    done.add(key)
        return done

    def record(self, key: str) -> None:
        """Append one completion record and flush it to disk."""
        append_record(self.path, {"key": key, "status": "ok"})
