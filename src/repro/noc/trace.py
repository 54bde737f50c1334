"""Kernel trace hooks: observe the event-driven scheduler from outside.

The wake-list kernel (`docs/ARCHITECTURE.md`, "Kernel scheduling") emits a
small set of events at its state-transition points. :class:`KernelTrace`
is the hook protocol — every method is a no-op, so the base class doubles
as the null tracer — and :class:`RecordingTrace` captures the stream for
tests and kernel-vs-kernel diffing: two kernels that are cycle-accurate
equivalents must produce identical event streams for the same workload.

The hot path guards every emission with a single ``is not None`` check on
``Network.trace``, so an untraced simulation pays one pointer comparison
per event, not a method call.

Event vocabulary (all carry the cycle and the router node):

``va_grant``
    VA_out granted input VC ``(in_port, in_vc)`` the downstream VC
    ``(out_port, out_vc)`` for packet ``pid``.
``sa_win``
    Input VC ``(in_port, in_vc)`` won both switch-allocation steps and
    will traverse the switch this cycle.
``flit_send``
    One flit of packet ``pid`` left through ``(out_port, out_vc)``;
    ``is_tail`` marks the packet's last flit.
``credit_return``
    A credit for ``(port, vc)`` was delivered back to the router.
``wake`` / ``sleep``
    The router entered / left the network's active set (first packet
    arrived / last packet drained).
``dpa_flip``
    The router's DPA priority state changed: ``native_high`` is the new
    state, ``ovc_n`` / ``ovc_f`` the occupied-VC counters that drove the
    hysteresis update. Emitted only on *transitions* (the common
    no-change cycle emits nothing), so the stream is exactly the
    per-router hysteresis timeline the observability layer records.
"""

from __future__ import annotations

from collections import Counter, deque

__all__ = ["KernelTrace", "RecordingTrace", "TeeTrace"]


class KernelTrace:
    """No-op base tracer; subclass and override the events you care about."""

    __slots__ = ()

    def va_grant(
        self,
        cycle: int,
        node: int,
        in_port: int,
        in_vc: int,
        out_port: int,
        out_vc: int,
        pid: int,
    ) -> None:
        """An input VC was granted a downstream VC at the VA stage."""

    def sa_win(
        self, cycle: int, node: int, in_port: int, in_vc: int, out_port: int, pid: int
    ) -> None:
        """An input VC won SA_in and SA_out this cycle."""

    def flit_send(
        self, cycle: int, node: int, out_port: int, out_vc: int, pid: int, is_tail: bool
    ) -> None:
        """A flit traversed the switch and left the router."""

    def credit_return(self, cycle: int, node: int, port: int, vc: int) -> None:
        """A credit was delivered back to ``(node, port, vc)``."""

    def wake(self, cycle: int, node: int) -> None:
        """Router ``node`` joined the active set (first resident packet)."""

    def sleep(self, cycle: int, node: int) -> None:
        """Router ``node`` left the active set (last resident packet gone)."""

    def dpa_flip(
        self, cycle: int, node: int, native_high: bool, ovc_n: int, ovc_f: int
    ) -> None:
        """Router ``node``'s DPA priority flipped to ``native_high``."""


class RecordingTrace(KernelTrace):
    """Tracer that appends every event as a tuple to :attr:`events`.

    Each tuple starts with the event kind (``"va_grant"``, ``"sa_win"``,
    ``"flit_send"``, ``"credit_return"``, ``"wake"``, ``"sleep"``,
    ``"dpa_flip"``) followed by that event's arguments in signature order.

    With ``depth`` set, :attr:`events` is a ``deque(maxlen=depth)`` — the
    runtime guard's blackbox feed: a violation at cycle N can dump the
    last ``depth`` scheduling decisions that led up to it while a long
    clean run never accumulates more than ``depth`` entries.
    """

    __slots__ = ("events",)

    def __init__(self, depth: int | None = None) -> None:
        self.events: list[tuple] | deque[tuple] = (
            [] if depth is None else deque(maxlen=depth)
        )

    def va_grant(self, cycle, node, in_port, in_vc, out_port, out_vc, pid) -> None:
        self.events.append(("va_grant", cycle, node, in_port, in_vc, out_port, out_vc, pid))

    def sa_win(self, cycle, node, in_port, in_vc, out_port, pid) -> None:
        self.events.append(("sa_win", cycle, node, in_port, in_vc, out_port, pid))

    def flit_send(self, cycle, node, out_port, out_vc, pid, is_tail) -> None:
        self.events.append(("flit_send", cycle, node, out_port, out_vc, pid, is_tail))

    def credit_return(self, cycle, node, port, vc) -> None:
        self.events.append(("credit_return", cycle, node, port, vc))

    def wake(self, cycle, node) -> None:
        self.events.append(("wake", cycle, node))

    def sleep(self, cycle, node) -> None:
        self.events.append(("sleep", cycle, node))

    def dpa_flip(self, cycle, node, native_high, ovc_n, ovc_f) -> None:
        self.events.append(("dpa_flip", cycle, node, native_high, ovc_n, ovc_f))

    # -- inspection helpers ----------------------------------------------------
    def of_kind(self, kind: str) -> list[tuple]:
        """All recorded events of one kind, in emission order."""
        return [e for e in self.events if e[0] == kind]

    def counts(self) -> Counter:
        """Event-kind histogram of the recorded stream."""
        return Counter(e[0] for e in self.events)

    def clear(self) -> None:
        """Drop all recorded events."""
        self.events.clear()


class TeeTrace(KernelTrace):
    """Fan one kernel event stream out to two tracers, first then second.

    Lets the runtime guard ride a network whose trace slot is already
    claimed (the obs collector refuses to chain; the tee chains *for*
    it): both tracers observe the identical event stream in the identical
    order, so e.g. the collector's JSONL output is byte-for-byte
    unchanged by the guard tapping in behind it.
    """

    __slots__ = ("first", "second")

    def __init__(self, first: KernelTrace, second: KernelTrace) -> None:
        self.first = first
        self.second = second

    def va_grant(self, cycle, node, in_port, in_vc, out_port, out_vc, pid) -> None:
        self.first.va_grant(cycle, node, in_port, in_vc, out_port, out_vc, pid)
        self.second.va_grant(cycle, node, in_port, in_vc, out_port, out_vc, pid)

    def sa_win(self, cycle, node, in_port, in_vc, out_port, pid) -> None:
        self.first.sa_win(cycle, node, in_port, in_vc, out_port, pid)
        self.second.sa_win(cycle, node, in_port, in_vc, out_port, pid)

    def flit_send(self, cycle, node, out_port, out_vc, pid, is_tail) -> None:
        self.first.flit_send(cycle, node, out_port, out_vc, pid, is_tail)
        self.second.flit_send(cycle, node, out_port, out_vc, pid, is_tail)

    def credit_return(self, cycle, node, port, vc) -> None:
        self.first.credit_return(cycle, node, port, vc)
        self.second.credit_return(cycle, node, port, vc)

    def wake(self, cycle, node) -> None:
        self.first.wake(cycle, node)
        self.second.wake(cycle, node)

    def sleep(self, cycle, node) -> None:
        self.first.sleep(cycle, node)
        self.second.sleep(cycle, node)

    def dpa_flip(self, cycle, node, native_high, ovc_n, ovc_f) -> None:
        self.first.dpa_flip(cycle, node, native_high, ovc_n, ovc_f)
        self.second.dpa_flip(cycle, node, native_high, ovc_n, ovc_f)
