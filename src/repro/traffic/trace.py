"""Packet-trace capture and replay.

Traces decouple workload generation from simulation: any traffic source
can be *captured* into a :class:`Trace` (a compact structured NumPy
array), saved to ``.npz``, and later *replayed* bit-identically through a
:class:`TraceTrafficSource` — the same role the paper's GEMS-generated
trace files play for GARNET. Replay is also how the test suite pins down
cross-policy comparisons: two schemes fed the same trace see exactly the
same offered traffic.

Closed-loop behaviour (the PARSEC reply generation) is intentionally not
captured — a trace records *offered* packets; replies depend on simulated
ejection times and must stay reactive.
"""

from __future__ import annotations

import numpy as np

from repro.noc.flit import Packet
from repro.util.errors import TrafficError

__all__ = ["Trace", "TraceTrafficSource", "capture_trace"]

_FIELDS = [
    ("cycle", np.int64),
    ("src", np.int64),
    ("dst", np.int64),
    ("length", np.int64),
    ("app", np.int64),
    ("vnet", np.int64),
    ("is_global", np.bool_),
    ("is_adversarial", np.bool_),
]


class Trace:
    """An ordered list of packet injections."""

    def __init__(self, records: np.ndarray):
        expected = {name for name, _ in _FIELDS}
        if set(records.dtype.names or ()) != expected:
            raise TrafficError(f"trace records must have fields {sorted(expected)}")
        order = np.argsort(records["cycle"], kind="stable")
        self.records = records[order]

    def __len__(self) -> int:
        return len(self.records)

    @classmethod
    def from_rows(cls, rows) -> "Trace":
        """Build from an iterable of (cycle, src, dst, length, app, vnet,
        is_global, is_adversarial) tuples."""
        arr = np.array(list(rows), dtype=_FIELDS)
        return cls(arr)

    def save(self, path) -> None:
        """Write the trace to an ``.npz`` file."""
        np.savez_compressed(path, records=self.records)

    @classmethod
    def load(cls, path) -> "Trace":
        """Read a trace written by :meth:`save`."""
        with np.load(path) as data:
            return cls(data["records"])

    def total_flits(self) -> int:
        """Sum of packet lengths."""
        return int(self.records["length"].sum())

    def duration(self) -> int:
        """Last injection cycle + 1 (0 for an empty trace)."""
        return int(self.records["cycle"][-1]) + 1 if len(self.records) else 0


class TraceTrafficSource:
    """Replays a :class:`Trace` against a network."""

    def __init__(self, trace: Trace, cycle_offset: int = 0, repeat: bool = False):
        self.trace = trace
        self.cycle_offset = cycle_offset
        self.repeat = repeat
        self._idx = 0
        self._epoch = 0
        self.packets_injected = 0

    def next_injection_cycle(self, cycle: int, limit: int, network) -> int | None:
        """Due cycle of the next record if it falls before ``limit``.

        Pure query — replay keeps no RNG, so the fast-forward lookahead
        needs no scanning or buffering here.
        """
        records = self.trace.records
        n = len(records)
        if n == 0:
            return None
        idx, epoch = self._idx, self._epoch
        if idx >= n:
            period = self.trace.duration()
            if not self.repeat or period == 0:
                return None
            idx, epoch = 0, epoch + 1
        due = int(records[idx]["cycle"]) + self.cycle_offset + epoch * self.trace.duration()
        return due if due < limit else None

    def tick(self, cycle: int, network) -> None:
        """Inject every trace record due at ``cycle``."""
        records = self.trace.records
        n = len(records)
        if n == 0:
            return
        period = self.trace.duration()
        # Ejection releases every packet into the network's pool, so replay
        # draws from it too (plain construction for pool-less stand-ins).
        alloc = getattr(network, "alloc_packet", Packet)
        while True:
            if self._idx >= n:
                if not self.repeat or period == 0:
                    return
                self._idx = 0
                self._epoch += 1
            rec = records[self._idx]
            due = int(rec["cycle"]) + self.cycle_offset + self._epoch * period
            if due > cycle:
                return
            pkt = alloc(
                src=int(rec["src"]),
                dst=int(rec["dst"]),
                length=int(rec["length"]),
                inject_cycle=cycle,
                app_id=int(rec["app"]),
                vnet=int(rec["vnet"]),
                is_global=bool(rec["is_global"]),
                is_adversarial=bool(rec["is_adversarial"]),
            )
            network.inject(pkt)
            self.packets_injected += 1
            self._idx += 1


class _CaptureNetwork:
    """Minimal network stand-in that records inject() calls."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def inject(self, pkt: Packet) -> None:
        self.rows.append(
            (
                pkt.inject_cycle,
                pkt.src,
                pkt.dst,
                pkt.length,
                pkt.app_id,
                pkt.vnet,
                pkt.is_global,
                pkt.is_adversarial,
            )
        )


def capture_trace(sources, cycles: int) -> Trace:
    """Run open-loop ``sources`` for ``cycles`` and capture their packets.

    Only open-loop sources are meaningful here (closed-loop sources react
    to ejections, which a capture run does not produce).
    """
    sink = _CaptureNetwork()
    for cycle in range(cycles):
        for source in sources:
            source.tick(cycle, sink)
    return Trace.from_rows(sink.rows)
