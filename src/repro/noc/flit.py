"""Packets and message classes.

The simulator is wormhole-switched with *atomic* VCs: all flits of a packet
occupy one VC at a time and flits of different packets never interleave in
a buffer. That invariant lets us represent a packet's flits implicitly —
an input VC tracks how many flits of its resident packet have arrived and
departed instead of allocating a Python object per flit, which keeps the
hot loop allocation-free (see the HPC guide note on doing less work rather
than micro-tuning).

Packet lengths follow the paper: short packets are a single 16-byte flit,
long packets are 5 flits (64-byte payload + head flit) on 128-bit links.
"""

from __future__ import annotations

import enum
import itertools

__all__ = [
    "MessageClass",
    "Packet",
    "PacketPool",
    "SHORT_PACKET_FLITS",
    "LONG_PACKET_FLITS",
]

SHORT_PACKET_FLITS = 1
LONG_PACKET_FLITS = 5


class MessageClass(enum.IntEnum):
    """Protocol class of a packet; maps onto a virtual network.

    ``DATA`` is used by synthetic traffic (single vnet). The PARSEC-like
    traffic model uses ``REQUEST``/``REPLY`` on two vnets so that reply
    generation at the destination cannot deadlock against requests.
    """

    DATA = 0
    REQUEST = 0
    REPLY = 1


_packet_ids = itertools.count()


class Packet:
    """One network packet.

    Attributes are plain slots (no dataclass machinery) because packets are
    the highest-volume allocation in a simulation.

    Attributes
    ----------
    pid: unique id (monotonically increasing, process-wide).
    src, dst: source and destination node ids.
    app_id: id of the application the packet belongs to (-1 = unattributed,
        e.g. pure background traffic in unit tests).
    vnet: virtual network (protocol class) index.
    length: number of flits.
    inject_cycle: cycle the packet entered the source queue.
    is_global: whether source and destination lie in different regions
        (set by the traffic layer; informational/statistics only — routers
        classify traffic as native/foreign locally, per the paper).
    is_adversarial: marks Fig.-17 flood traffic for statistics.
    hops: router-to-router hops actually traversed (maintained by the
        network as the head flit moves; equals the Manhattan distance for
        the minimal routings in this package).
    """

    __slots__ = (
        "pid",
        "src",
        "dst",
        "app_id",
        "vnet",
        "length",
        "inject_cycle",
        "is_global",
        "is_adversarial",
        "hops",
        "in_pool",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        length: int,
        inject_cycle: int,
        app_id: int = -1,
        vnet: int = 0,
        is_global: bool = False,
        is_adversarial: bool = False,
    ):
        self.init(
            src, dst, length, inject_cycle, app_id, vnet, is_global, is_adversarial
        )

    def init(
        self,
        src: int,
        dst: int,
        length: int,
        inject_cycle: int,
        app_id: int = -1,
        vnet: int = 0,
        is_global: bool = False,
        is_adversarial: bool = False,
    ) -> "Packet":
        """(Re)initialise every field in place.

        Used both by ``__init__`` and by :class:`PacketPool` when recycling
        an ejected packet object. The ``pid`` is always freshly drawn —
        recycled objects are *new* packets to every consumer keyed on pid
        (trace events, coherence continuations).
        """
        self.pid = next(_packet_ids)
        self.src = src
        self.dst = dst
        self.app_id = app_id
        self.vnet = vnet
        self.length = length
        self.inject_cycle = inject_cycle
        self.is_global = is_global
        self.is_adversarial = is_adversarial
        self.hops = 0
        self.in_pool = False
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "G" if self.is_global else "R"
        adv = "!" if self.is_adversarial else ""
        return (
            f"Packet(#{self.pid} app{self.app_id}{adv} {self.src}->{self.dst} "
            f"len={self.length} vnet={self.vnet} t={self.inject_cycle} {kind})"
        )


class PacketPool:
    """Free list of ejected :class:`Packet` objects.

    Packets are the one per-event allocation left on the kernel's hot path
    (flits are implicit — see the module docstring). A network owns one
    pool: ejection returns the packet object here (after the ejection
    callbacks ran — the release contract is that callbacks copy what they
    need and never retain the object), and traffic sources draw from it via
    ``Network.alloc_packet``, re-initialising in place through
    :meth:`Packet.init` with a fresh pid.

    ``hits`` / ``allocs`` count recycled vs freshly constructed packets;
    they surface in :class:`~repro.noc.stats.RunMetrics`. The pool is
    bounded so a drained burst cannot pin unbounded memory.
    """

    __slots__ = ("_free", "max_size", "hits", "allocs")

    def __init__(self, max_size: int = 4096):
        self._free: list[Packet] = []
        self.max_size = max_size
        self.hits = 0
        self.allocs = 0

    def __len__(self) -> int:
        return len(self._free)

    def alloc(
        self,
        src: int,
        dst: int,
        length: int,
        inject_cycle: int,
        app_id: int = -1,
        vnet: int = 0,
        is_global: bool = False,
        is_adversarial: bool = False,
    ) -> Packet:
        """A packet with the given fields — recycled if the pool has one."""
        free = self._free
        if free:
            self.hits += 1
            return free.pop().init(
                src, dst, length, inject_cycle, app_id, vnet, is_global, is_adversarial
            )
        self.allocs += 1
        return Packet(
            src, dst, length, inject_cycle, app_id, vnet, is_global, is_adversarial
        )

    def release(self, pkt: Packet) -> None:
        """Return an ejected packet's object for reuse (idempotence-guarded)."""
        if pkt.in_pool:
            return  # already released; never hand the same object out twice
        pkt.in_pool = True
        if len(self._free) < self.max_size:
            self._free.append(pkt)

    def free_packets(self) -> tuple[Packet, ...]:
        """Snapshot of the free list (for the guard's pool-safety check).

        Every packet here must carry ``in_pool=True`` — a free-list entry
        with the flag clear means something re-initialised a pooled object
        without drawing it through :meth:`alloc`.
        """
        return tuple(self._free)
