"""Turn-model partially adaptive routing: West-First and Odd-Even.

The paper's Section IV.D claims RAIR composes with "virtually any deadlock
avoidance or recovery routing algorithm". These two classic turn-model
algorithms are deadlock-free *without* escape VCs (their turn restrictions
make the channel-dependency graph acyclic), so they exercise that claim
from a different angle than the Duato-style algorithms:

* **West-First** (Glass & Ni): all westward movement happens first and is
  deterministic; once the packet no longer needs to go west it may route
  fully adaptively among the productive {east, north, south} directions.
* **Odd-Even** (Chiu): no EN/ES turns in even columns, no NW/SW turns in
  odd columns; adaptivity is spread more evenly across the mesh than in
  West-First. The admissible-port function below is Chiu's minimal ROUTE
  algorithm.

Because the full turn-model relation is already deadlock-free, the escape
VC is simply pinned to a deterministic member of the relation (the first
admissible port), which keeps the router's escape-VC plumbing uniform
across all routing algorithms.
"""

from __future__ import annotations

from repro.routing.base import RoutingAlgorithm
from repro.routing.selection import by_score, credit_rank
from repro.noc.topology import EAST, LOCAL, NORTH, SOUTH, WEST
from repro.util.errors import ConfigError

__all__ = ["WestFirstRouting", "OddEvenRouting"]


class _TurnModelRouting(RoutingAlgorithm):
    """Shared machinery: credit-ranked selection, first-port escape."""

    def attach(self, network) -> None:
        # The turn relations are proved acyclic on a mesh only; a wrap
        # link would reintroduce the cycles the banned turns break.
        kind = network.topology.kind
        if kind != "mesh":
            raise ConfigError(
                f"{type(self).__name__} is mesh-only, got {kind!r}"
            )
        super().attach(network)

    def rank_ports(self, node: int, pkt, ports: tuple[int, ...]) -> tuple[int, ...]:
        if len(ports) <= 1:
            return ports
        return by_score(ports, credit_rank(self.network, node, pkt, ports))

    def escape_port(self, node: int, pkt) -> int:
        # Deterministic sub-relation of an acyclic turn-model relation:
        # always the first admissible port (stable, minimal, productive).
        return self.admissible_ports(node, pkt)[0]


class WestFirstRouting(_TurnModelRouting):
    """West-First: deterministic while westbound, adaptive afterwards."""

    def admissible_ports(self, node: int, pkt) -> tuple[int, ...]:
        topo = self.network.topology
        if node == pkt.dst:
            return (LOCAL,)
        x, y = topo.coords(node)
        dx, dy = topo.coords(pkt.dst)
        if dx < x:
            # All west hops first; W-only keeps the NW/SW turns out of the
            # relation.
            return (WEST,)
        ports = []
        if dx > x:
            ports.append(EAST)
        if dy < y:
            ports.append(NORTH)
        elif dy > y:
            ports.append(SOUTH)
        return tuple(ports)


class OddEvenRouting(_TurnModelRouting):
    """Odd-Even turn model, minimal routing (Chiu's ROUTE algorithm)."""

    # Chiu's relation exempts the source column from the even-column turn
    # ban (``cur_x == src_x`` below), so admissibility depends on the
    # packet's source — a (node, dst) table would mis-route it.
    route_table_enabled = False

    def admissible_ports(self, node: int, pkt) -> tuple[int, ...]:
        topo = self.network.topology
        if node == pkt.dst:
            return (LOCAL,)
        cur_x, cur_y = topo.coords(node)
        dst_x, dst_y = topo.coords(pkt.dst)
        src_x, _ = topo.coords(pkt.src)
        e0 = dst_x - cur_x
        e1 = dst_y - cur_y
        vertical = NORTH if e1 < 0 else SOUTH
        ports: list[int] = []
        if e0 == 0:
            # Same column: pure vertical movement.
            ports.append(vertical)
        elif e0 > 0:
            # Eastbound.
            if e1 == 0:
                ports.append(EAST)
            else:
                # EN/ES turns are disallowed in even columns, so the
                # vertical option only exists in odd columns (or in the
                # source column, where no turn is taken).
                if cur_x % 2 == 1 or cur_x == src_x:
                    ports.append(vertical)
                # Keeping east must leave a later legal turn: the final
                # turn into the destination column happens via NW/SW,
                # which is only legal into odd columns — so either the
                # destination column is odd or we are not immediately
                # west of it.
                if dst_x % 2 == 1 or e0 != 1:
                    ports.append(EAST)
        else:
            # Westbound: W always legal; NW/SW turns only from even columns.
            ports.append(WEST)
            if e1 != 0 and cur_x % 2 == 0:
                ports.append(vertical)
        if not ports:  # defensive: Chiu's relation never leaves this empty
            ports.append(vertical if e0 == 0 else (EAST if e0 > 0 else WEST))
        return tuple(ports)
