"""Minimal fully adaptive routing per Duato's theory, local selection.

Admissible ports are all productive (minimal) directions. The escape VC of
each virtual network is restricted to the dimension-order port; adaptive
VCs may take any admissible port. Port ranking uses only local credit
information (:func:`repro.routing.selection.credit_rank`), making this the
"typical adaptive routing algorithm that uses the information available at
the local router" of the paper's Section V.C.
"""

from __future__ import annotations

from repro.routing.base import RoutingAlgorithm
from repro.routing.selection import by_score, credit_rank

__all__ = ["DuatoAdaptiveRouting"]


class DuatoAdaptiveRouting(RoutingAlgorithm):
    """Minimal adaptive routing with escape VCs and credit-based selection."""

    def admissible_ports(self, node: int, pkt) -> tuple[int, ...]:
        return self.network.topology.minimal_ports(node, pkt.dst)

    def rank_ports(self, node: int, pkt, ports: tuple[int, ...]) -> tuple[int, ...]:
        if len(ports) <= 1:
            return ports
        return by_score(ports, credit_rank(self.network, node, pkt, ports))
