"""Directory-coherence traffic and the dynamic-home-node optimization.

The paper's Section II.A Example 3: Marty & Hill's *virtual hierarchies*
select cache-line home nodes so coherence transactions resolve inside the
requester's region, cutting cycles-per-transaction by 15-65% — and, as a
side effect, turning the NoC into an RNoC (most protocol traffic becomes
intra-region). This module reproduces that formation mechanism as a
workload the simulator can run:

* a simple directory protocol over three virtual networks —
  **request** (1 flit, requester -> home), optional **forward** (1 flit,
  home -> current owner, probability ``forward_prob``), and **data
  response** (5 flits, home or owner -> requester);
* two home-node policies:
  ``static``  — homes are address-interleaved across the whole chip
  (the conventional-NoC baseline), and
  ``dynamic`` — homes are interleaved *within the region that owns the
  data* (the virtual-hierarchy optimization);
* a sharing model: a request targets the requester's own application's
  data with probability ``1 - remote_share``, someone else's otherwise.

:meth:`CoherenceWorkload.regionalization_report` measures the resulting
intra-/inter-region traffic split, which is the RB-3 regional behaviour
the paper derives from this example; ``examples/coherence_rnoc.py`` runs
the comparison end to end.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.regions import RegionMap
from repro.noc.flit import LONG_PACKET_FLITS, Packet
from repro.util.errors import TrafficError
from repro.util.rng import make_rng
from repro.util.validate import check_fraction

__all__ = ["CoherenceConfig", "CoherenceWorkload"]

#: virtual networks used by the protocol (deadlock freedom: a message may
#: only generate messages on strictly higher vnets)
VNET_REQUEST = 0
VNET_FORWARD = 1
VNET_RESPONSE = 2

DIRECTORY_LATENCY = 4
OWNER_LATENCY = 2


@dataclass(frozen=True)
class CoherenceConfig:
    """Knobs of the coherence workload.

    ``req_rate`` is requests/node/cycle; ``remote_share`` the probability
    a request targets another application's data; ``forward_prob`` the
    probability the home must forward to a dirty owner (three-hop
    transaction) rather than answer directly (two-hop).
    """

    req_rate: float = 0.02
    remote_share: float = 0.10
    forward_prob: float = 0.30
    home_policy: str = "dynamic"

    def __post_init__(self) -> None:
        check_fraction(self.remote_share, "remote_share")
        check_fraction(self.forward_prob, "forward_prob")
        if not 0 <= self.req_rate <= 1:
            raise TrafficError(f"req_rate must be in [0,1], got {self.req_rate}")
        if self.home_policy not in ("static", "dynamic"):
            raise TrafficError(
                f"home_policy must be 'static' or 'dynamic', got {self.home_policy!r}"
            )


class CoherenceWorkload:
    """Closed-loop directory-protocol traffic over a region map.

    Requires a network configured with (at least) three virtual networks.
    """

    def __init__(self, region_map: RegionMap, config: CoherenceConfig, seed):
        self.region_map = region_map
        self.config = config
        self.rng = make_rng(seed)
        topo = region_map.topology
        self._nodes = np.asarray(
            [n for n in range(topo.num_nodes) if region_map.node_app[n] >= 0],
            dtype=np.int64,
        )
        if len(self._nodes) == 0:
            raise TrafficError("region map assigns no nodes")
        self._all_nodes = np.arange(topo.num_nodes, dtype=np.int64)
        self._region_nodes = {
            app: np.asarray(region_map.nodes_of(app), dtype=np.int64)
            for app in region_map.apps
        }
        self._apps = list(region_map.apps)
        # pid -> pending continuation executed when the packet ejects.
        self._continuations: dict[int, tuple] = {}
        self._pending: list = []
        self._seq = 0
        self._attached = False
        # Packet constructor: the network's pool allocator once attached
        # (ejection releases every packet into that pool), plain
        # construction for stand-ins without one.
        self._alloc = Packet
        self.transactions_started = 0
        self.transactions_completed = 0
        self.transaction_latency_sum = 0
        self.intra_packets = 0
        self.inter_packets = 0

    # -- home selection -------------------------------------------------------
    def home_of(self, data_app: int) -> int:
        """Pick the home (directory) node for a line of ``data_app``'s data."""
        if self.config.home_policy == "dynamic":
            nodes = self._region_nodes[data_app]
        else:
            nodes = self._all_nodes
        return int(nodes[self.rng.integers(len(nodes))])

    def owner_of(self, data_app: int) -> int:
        """Pick the current owner/sharer of a line of ``data_app``'s data."""
        nodes = self._region_nodes[data_app]
        return int(nodes[self.rng.integers(len(nodes))])

    # -- simulator interface -----------------------------------------------------
    def tick(self, cycle: int, network) -> None:
        """Issue new requests and dispatch due protocol continuations."""
        if not self._attached:
            if network.config.num_vnets < 3:
                raise TrafficError(
                    "coherence workload needs >= 3 virtual networks "
                    f"(got {network.config.num_vnets})"
                )
            network.eject_callbacks.append(self._on_ejection)
            self._alloc = getattr(network, "alloc_packet", Packet)
            self._attached = True
        rng = self.rng
        fire = np.flatnonzero(rng.random(len(self._nodes)) < self.config.req_rate)
        for idx in fire:
            self._start_transaction(network, int(self._nodes[idx]), cycle)
        while self._pending and self._pending[0][0] <= cycle:
            _, _, pkt, continuation = heapq.heappop(self._pending)
            pkt.inject_cycle = cycle
            if continuation is not None:
                self._continuations[pkt.pid] = continuation
            self._send(network, pkt)

    def _start_transaction(self, network, node: int, cycle: int) -> None:
        rng = self.rng
        app = self.region_map.app_of(node)
        if rng.random() < self.config.remote_share and len(self._apps) > 1:
            others = [a for a in self._apps if a != app]
            data_app = others[int(rng.integers(len(others)))]
        else:
            data_app = app
        home = self.home_of(data_app)
        if home == node:
            # Local directory hit: no network transaction.
            return
        self.transactions_started += 1
        request = self._alloc(
            src=node,
            dst=home,
            length=1,
            inject_cycle=cycle,
            app_id=app,
            vnet=VNET_REQUEST,
            is_global=self.region_map.is_global_pair(node, home),
        )
        self._continuations[request.pid] = ("at_home", node, data_app, cycle)
        self._send(network, request)

    def _send(self, network, pkt: Packet) -> None:
        if pkt.is_global:
            self.inter_packets += 1
        else:
            self.intra_packets += 1
        network.inject(pkt)

    def _schedule(self, due: int, pkt: Packet, continuation) -> None:
        self._seq += 1
        heapq.heappush(self._pending, (due, self._seq, pkt, continuation))

    def _on_ejection(self, pkt: Packet, cycle: int) -> None:
        continuation = self._continuations.pop(pkt.pid, None)
        if continuation is None:
            return
        kind = continuation[0]
        rng = self.rng
        if kind == "at_home":
            _, requester, data_app, start = continuation
            if rng.random() < self.config.forward_prob:
                owner = self.owner_of(data_app)
                if owner != pkt.dst and owner != requester:
                    fwd = self._alloc(
                        src=pkt.dst,
                        dst=owner,
                        length=1,
                        inject_cycle=cycle,
                        app_id=pkt.app_id,
                        vnet=VNET_FORWARD,
                        is_global=self.region_map.is_global_pair(pkt.dst, owner),
                    )
                    self._schedule(
                        cycle + DIRECTORY_LATENCY, fwd, ("at_owner", requester, start)
                    )
                    return
            self._reply(pkt.dst, requester, pkt.app_id, cycle + DIRECTORY_LATENCY, start)
        elif kind == "at_owner":
            _, requester, start = continuation
            self._reply(pkt.dst, requester, pkt.app_id, cycle + OWNER_LATENCY, start)
        elif kind == "done":
            start = continuation[1]
            self.transactions_completed += 1
            self.transaction_latency_sum += cycle - start

    def _reply(self, src: int, requester: int, app: int, due: int, start: int) -> None:
        if src == requester:
            self.transactions_completed += 1
            self.transaction_latency_sum += due - start
            return
        data = self._alloc(
            src=src,
            dst=requester,
            length=LONG_PACKET_FLITS,
            inject_cycle=due,
            app_id=app,
            vnet=VNET_RESPONSE,
            is_global=self.region_map.is_global_pair(src, requester),
        )
        self._schedule(due, data, ("done", start))

    # -- reporting -------------------------------------------------------------------
    def regionalization_report(self) -> dict[str, float]:
        """Intra/inter split and transaction stats — the RB-3 measurement."""
        total = self.intra_packets + self.inter_packets
        return {
            "packets": total,
            "intra_fraction": self.intra_packets / total if total else float("nan"),
            "inter_fraction": self.inter_packets / total if total else float("nan"),
            "transactions_completed": self.transactions_completed,
            "avg_transaction_cycles": (
                self.transaction_latency_sum / self.transactions_completed
                if self.transactions_completed
                else float("nan")
            ),
        }
