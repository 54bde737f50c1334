"""Deterministic dimension-order routing.

Packets fully traverse the X dimension before turning into Y (on a ring,
the minimal direction is fixed at the source). On a mesh this is minimal
and deadlock-free without virtual channels; on wrap fabrics it is the
dateline-classed escape relation (see :mod:`repro.noc.topology`) — in both
cases it is exactly the escape function the adaptive algorithms use, which
is why the deterministic baseline routes every VC along it.
"""

from __future__ import annotations

from repro.routing.base import RoutingAlgorithm

__all__ = ["XYRouting"]


class XYRouting(RoutingAlgorithm):
    """Dimension-order routing (X-then-Y on grids, minimal-way on rings)."""

    def admissible_ports(self, node: int, pkt) -> tuple[int, ...]:
        return (self.network.topology.dimension_order_port(node, pkt.dst),)

    def escape_port(self, node: int, pkt) -> int:
        return self.network.topology.dimension_order_port(node, pkt.dst)
