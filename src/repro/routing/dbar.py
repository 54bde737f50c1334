"""DBAR: destination-based adaptive routing with region-truncated congestion.

Ma et al. (ISCA 2011) propose propagating buffer-occupancy information
along each dimension but *discarding contributions from other regions*, so
that the load of a neighbouring application's region cannot perturb route
selection for packets that will never enter it. The paper under
reproduction uses DBAR both as an enhanced routing algorithm for RAIR
(RAIR_DBAR, Fig. 10) and as the least-restrictive region-aware baseline
(RA_DBAR, Figs. 14/15/17).

Substitution note (DESIGN.md §4): real DBAR carries the aggregate on
dedicated wires; we compute the same truncated-path aggregate from the
simulator's per-router occupancy table, which has identical information
content one cycle later.
"""

from __future__ import annotations

from repro.routing.base import RoutingAlgorithm
from repro.routing.selection import by_score, dbar_rank

__all__ = ["DbarRouting"]


class DbarRouting(RoutingAlgorithm):
    """Minimal adaptive routing with DBAR's region-aware selection function."""

    uses_congestion = True

    def admissible_ports(self, node: int, pkt) -> tuple[int, ...]:
        return self.network.topology.minimal_ports(node, pkt.dst)

    def rank_ports(self, node: int, pkt, ports: tuple[int, ...]) -> tuple[int, ...]:
        if len(ports) <= 1:
            return ports
        return by_score(ports, dbar_rank(self.network, node, pkt, ports))
