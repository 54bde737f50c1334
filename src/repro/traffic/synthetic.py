"""Open-loop synthetic traffic sources.

Each node covered by a source injects packets as a Bernoulli process whose
per-cycle probability is derived from the configured load in
**flits/node/cycle** divided by the mean packet length — the standard
open-loop injection model. Packet lengths follow the paper's bimodal mix
(half 1-flit short packets, half 5-flit data packets) unless overridden.

Sources also keep per-window injection counters so experiment code can
verify drain completeness and offered-vs-accepted load.

Fast-forward lookahead
----------------------

:meth:`SyntheticTrafficSource.next_injection_cycle` lets the simulator
skip provably idle gaps: it scans forward consuming the RNG in *exactly*
the order the naive per-cycle :meth:`tick` would (one length-``len(nodes)``
Bernoulli vector per active cycle, then one ``make_packet`` per firing
node in ascending node order), buffering any packets it builds. A later
``tick`` on an already-scanned cycle injects the buffered packets without
touching the RNG, so a fast-forwarded run is bit-identical to a naive
one. The simulator never jumps past a buffered injection (the lookahead's
return value caps the jump), so buffered packets cannot be skipped over.

The scan draws its vectors in blocks sized by the expected gap to the
next firing cycle, which the source knows at construction: with
``q = 1 - (1 - p)**n`` the chance that a cycle fires at all, a dense
source (every figure scenario: q from 0.25 up) draws one cycle's vector
at a time — nothing is drawn past the firing row, so there is nothing to
undo — and a sparse one ramps 16 -> 64 -> 256 -> 512 cycles per draw.
Only when rows past the firing one *were* drawn does the scan rewind the
generator to the block start and re-consume the rows up to it, so that
``make_packet``'s draws follow that row's vector as they would naively.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

import numpy as np

from repro.noc.flit import LONG_PACKET_FLITS, SHORT_PACKET_FLITS, Packet
from repro.util.errors import TrafficError
from repro.util.rng import make_rng

__all__ = ["BimodalLengths", "FixedLength", "SyntheticTrafficSource"]


class BimodalLengths:
    """The paper's packet-length mix: 1 or 5 flits with equal probability."""

    def __init__(self, short: int = SHORT_PACKET_FLITS, long: int = LONG_PACKET_FLITS, p_short: float = 0.5):
        if short < 1 or long < 1:
            raise TrafficError("packet lengths must be >= 1 flit")
        if not 0.0 <= p_short <= 1.0:
            raise TrafficError(f"p_short must be in [0,1], got {p_short}")
        self.short = short
        self.long = long
        self.p_short = p_short

    @property
    def mean(self) -> float:
        """Expected flits per packet."""
        return self.p_short * self.short + (1 - self.p_short) * self.long

    def __call__(self, rng: np.random.Generator) -> int:
        return self.short if rng.random() < self.p_short else self.long


class FixedLength:
    """Every packet has the same length (useful in unit tests)."""

    def __init__(self, length: int):
        if length < 1:
            raise TrafficError("packet length must be >= 1 flit")
        self.length = length

    @property
    def mean(self) -> float:
        return float(self.length)

    def __call__(self, rng: np.random.Generator) -> int:
        return self.length


class SyntheticTrafficSource:
    """Bernoulli open-loop source over a set of nodes.

    Parameters
    ----------
    nodes:
        Source nodes this generator covers.
    rate:
        Offered load in flits/node/cycle (converted internally to a
        per-cycle packet probability using the length sampler's mean).
    pattern:
        Destination sampler ``pattern(rng, src) -> dst``.
    app_id:
        Application the packets belong to.
    seed:
        RNG seed (or a Generator).
    lengths:
        Length sampler; defaults to the paper's bimodal mix.
    vnet:
        Virtual network for the packets.
    region_map:
        When given, packets whose src/dst regions differ are flagged
        ``is_global`` for the statistics breakdowns.
    start, stop:
        Active cycle range (half-open); ``stop=None`` means forever.
    adversarial:
        Mark packets as adversarial (Fig. 17 flood).
    """

    def __init__(
        self,
        nodes: Sequence[int],
        rate: float,
        pattern,
        app_id: int,
        seed,
        lengths=None,
        vnet: int = 0,
        region_map=None,
        start: int = 0,
        stop: int | None = None,
        adversarial: bool = False,
    ):
        self.nodes = np.asarray(sorted(nodes), dtype=np.int64)
        if len(self.nodes) == 0:
            raise TrafficError("traffic source over an empty node set")
        if rate < 0:
            raise TrafficError(f"rate must be >= 0, got {rate}")
        self.rate = rate
        self.pattern = pattern
        self.app_id = app_id
        self.rng = make_rng(seed)
        self.lengths = lengths or BimodalLengths()
        self.p_packet = rate / self.lengths.mean
        if self.p_packet > 1.0:
            raise TrafficError(
                f"rate {rate} flits/node/cycle exceeds 1 packet/node/cycle "
                f"(mean length {self.lengths.mean})"
            )
        self.vnet = vnet
        self.region_map = region_map
        self.start = start
        self.stop = stop
        self.adversarial = adversarial
        self.packets_injected = 0
        self.flits_injected = 0
        # Plain-int node list: the hot loop indexes it per firing node, and
        # a list of ints avoids a numpy-scalar box + int() per packet.
        self._node_list = [int(x) for x in self.nodes]
        # Fast-forward lookahead state: cycles < _scanned_until have already
        # consumed their RNG draws; packets they produced wait in _pending
        # as (cycle, [packets]) entries until tick() reaches that cycle.
        self._pending: deque[tuple[int, list[Packet]]] = deque()
        self._scanned_until = 0
        # Packet constructor: the pool allocator of the network last seen
        # (rebound when a different one shows up), plain construction for
        # stand-ins without a pool (capture_trace).
        self._network = None
        self._alloc = Packet
        # Cycles in the scan's first block draw: one for a dense source (a
        # cycle fires with probability q = 1 - (1 - p)^n, so a longer block
        # would mostly be drawn, rewound and drawn again), 16 and ramping
        # for a sparse one.
        q = 1.0 - (1.0 - self.p_packet) ** len(self.nodes)
        self._first_span = 1 if q >= self._DENSE_FIRE else 16

    # Lookahead scan block: at most 512 cycles of Bernoulli vectors per RNG call.
    _SCAN_BLOCK = 512
    # Firing probability q from which a source scans one cycle per draw.
    # Measured crossover of the two scan costs: q = 0.13 (64 nodes) to 0.19
    # (8-16 nodes); below it the ramping block wins by up to 5x.
    _DENSE_FIRE = 3 / 16

    def tick(self, cycle: int, network) -> None:
        """Generate this cycle's packets into the network's source queues."""
        if cycle < self.start or (self.stop is not None and cycle >= self.stop):
            return
        if self.p_packet <= 0.0:
            return
        if cycle >= self._scanned_until:
            # Scan a block ahead so per-cycle ticking amortizes its RNG
            # draws the same way fast-forward lookahead does. The scan
            # consumes the stream in exactly naive per-cycle order, so
            # this changes who draws, never what is drawn.
            self.next_injection_cycle(cycle, cycle + self._SCAN_BLOCK, network)
        pending = self._pending
        if pending and pending[0][0] == cycle:
            for pkt in pending.popleft()[1]:
                network.inject(pkt)
                self.packets_injected += 1
                self.flits_injected += pkt.length

    def next_injection_cycle(self, cycle: int, limit: int, network) -> int | None:
        """Earliest cycle in ``[cycle, limit)`` this source will inject at.

        Returns ``None`` when the source provably injects nothing before
        ``limit``. Scanning consumes the RNG exactly as naive ticking
        would; constructed packets are buffered for the eventual ``tick``
        (see module docstring). Inactive cycles — before ``start``, at or
        past ``stop``, or with zero probability — draw nothing in either
        mode, so the scan watermark moves over them for free.
        """
        pending = self._pending
        if pending:
            return pending[0][0]
        if self.p_packet <= 0.0:
            return None
        if self.stop is not None and limit > self.stop:
            limit = self.stop
        c = max(self._scanned_until, cycle, self.start)
        if c >= limit:
            return None
        if network is not self._network:
            self._network = network
            self._alloc = getattr(network, "alloc_packet", Packet)
        rng = self.rng
        p = self.p_packet
        n = len(self.nodes)
        nodes = self._node_list
        # One (span, n) draw replaces span per-cycle draws: Generator.random
        # fills arrays from the bit stream in C order, so a block consumes
        # exactly the doubles the naive per-cycle vectors would. make_packet
        # draws must follow the *firing* row's vector in the stream, so when
        # rows past it were drawn, rewind to the block start and re-consume
        # only the rows up to it. A one-row draw never over-draws and needs
        # neither the snapshot nor the rewind.
        span_cap = self._first_span
        while c < limit:
            span = min(limit - c, span_cap)
            if span == 1:
                j = 0
                fired = rng.random(n) < p
            else:
                span_cap = min(span_cap * 4, self._SCAN_BLOCK)
                state = rng.bit_generator.state
                block = rng.random((span, n)) < p
                hits = block.any(axis=1).nonzero()[0]
                # No hit: the block's last row stands in (it fires nothing).
                j = int(hits[0]) if len(hits) else span - 1
                if j + 1 < span:
                    rng.bit_generator.state = state
                    rng.random((j + 1, n))
                fired = block[j]
            c += j
            pkts = []
            for idx in fired.nonzero()[0].tolist():
                pkt = self.make_packet(nodes[idx], c)
                if pkt is not None:
                    pkts.append(pkt)
            self._scanned_until = c + 1
            if pkts:
                pending.append((c, pkts))
                return c
            c += 1  # nothing built (no hit, or every dst == src): keep scanning
        return None

    def _new_packet(self, src: int, dst: int, length: int, cycle: int, is_global: bool) -> Packet:
        """Construct via the network's packet pool when one is bound."""
        return self._alloc(
            src, dst, length, cycle, self.app_id, self.vnet, is_global, self.adversarial
        )

    def make_packet(self, src: int, cycle: int) -> Packet | None:
        """Build one packet from ``src`` at ``cycle`` (hook for subclasses)."""
        dst = self.pattern(self.rng, src)
        if dst == src:
            return None
        is_global = bool(self.region_map and self.region_map.is_global_pair(src, dst))
        return self._new_packet(src, dst, self.lengths(self.rng), cycle, is_global)
