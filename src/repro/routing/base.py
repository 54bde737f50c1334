"""Routing-algorithm interface.

A routing algorithm answers two questions for a head flit sitting at a
router:

1. *Admissible output ports* — which directions keep the packet on a
   permitted path (minimal, for all algorithms in this package).
2. *Port ranking* (the selection function) — in which order should
   admissible ports be tried, given current congestion knowledge.

Deadlock freedom follows Duato's theory: the escape VCs of each virtual
network are channels on which only the topology's dimension-order direction
may be requested; all other VCs are unrestricted among admissible ports.
The escape network alone is dimension-order routing, which is acyclic on a
mesh directly and on wrap fabrics (torus, ring) once split into two
dateline VC classes (see :mod:`repro.noc.topology`); a blocked packet can
always eventually request its escape VC, so the full network is
deadlock-free regardless of the adaptive selection used.

Route tables
------------

For every algorithm in this package the *admissible-port set*, the *escape
port*, and the *escape VC class* are pure functions of ``(node, dst)`` —
only the selection (``rank_ports``) reads dynamic state.
:meth:`RoutingAlgorithm.attach` therefore precomputes a flat
``num_nodes**2`` table of ``(admissible_ports, escape_port, escape_class)``
entries once per network, and :meth:`RoutingAlgorithm.route` — the
router's RC stage, the guard's dateline check — becomes a single list
index. An algorithm whose admissibility depends on more than the
destination (e.g. per-vnet or source-dependent relations) must set
``route_table_enabled = False`` to keep the dynamic per-packet path;
the table build probes ``admissible_ports`` with a lightweight
stand-in packet that only carries ``src``/``dst``/``vnet``/``app_id``, so
exotic field reads fail loudly at attach time rather than silently
mis-tabulating.
"""

from __future__ import annotations

__all__ = ["RoutingAlgorithm"]


class _RouteProbe:
    """Stand-in packet for table builds: destination (and src) only."""

    __slots__ = ("src", "dst", "vnet", "app_id")

    def __init__(self) -> None:
        self.src = 0
        self.dst = 0
        self.vnet = 0
        self.app_id = -1


class RoutingAlgorithm:
    """Base class; concrete algorithms override the three query methods."""

    #: set True in algorithms whose selection function reads the network's
    #: congestion snapshot — the network skips the per-cycle snapshot
    #: refresh entirely when the installed algorithm leaves this False
    uses_congestion = False
    #: set False in subclasses whose admissible ports / escape port depend
    #: on more than (node, dst) — disables the attach-time route table
    route_table_enabled = True
    #: largest mesh (in nodes) for which the quadratic table is built
    #: eagerly; bigger networks fall back to the per-packet path
    TABLE_MAX_NODES = 4096

    def __init__(self) -> None:
        self.network = None
        self._route_table: list[tuple[tuple[int, ...], int, int]] | None = None
        self._num_nodes = 0

    def attach(self, network) -> None:
        """Bind to a network (gives access to topology and congestion state).

        Also builds the per-(node, dst) route table when the algorithm is
        destination-pure (see module docstring).
        """
        self.network = network
        n = network.topology.num_nodes
        self._num_nodes = n
        self._route_table = None
        if self.route_table_enabled and n <= self.TABLE_MAX_NODES:
            probe = _RouteProbe()
            table = []
            # A fabric has a handful of distinct entries (ports x escape
            # hop); the n*n slots share them instead of holding a copy each.
            shared: dict = {}
            for node in range(n):
                for dst in range(n):
                    probe.dst = dst
                    entry = (
                        self.admissible_ports(node, probe),
                        self.escape_port(node, probe),
                        self.escape_vc_class(node, probe),
                    )
                    table.append(shared.setdefault(entry, entry))
            self._route_table = table

    def route(self, node: int, pkt) -> tuple[tuple[int, ...], int, int]:
        """``(admissible_ports, escape_port, escape_class)`` of ``pkt`` at ``node``.

        A table lookup when one was built at attach, the three per-packet
        queries otherwise (huge fabrics, destination-impure algorithms).
        """
        table = self._route_table
        if table is not None:
            return table[node * self._num_nodes + pkt.dst]
        return (
            self.admissible_ports(node, pkt),
            self.escape_port(node, pkt),
            self.escape_vc_class(node, pkt),
        )

    # -- queries ---------------------------------------------------------
    def admissible_ports(self, node: int, pkt) -> tuple[int, ...]:
        """Output ports the packet may take from ``node`` (never empty)."""
        raise NotImplementedError

    def escape_port(self, node: int, pkt) -> int:
        """The single port on which the escape VC may be requested."""
        return self.network.topology.dimension_order_port(node, pkt.dst)

    def escape_vc_class(self, node: int, pkt) -> int:
        """Dateline VC class of the escape hop (0 on single-class fabrics).

        Algorithms that override :meth:`escape_port` away from the
        topology's dimension-order port must keep this consistent with
        their escape relation; the default delegates to the topology.
        """
        return self.network.topology.escape_class(node, pkt.dst)

    def rank_ports(self, node: int, pkt, ports: tuple[int, ...]) -> tuple[int, ...]:
        """Order ``ports`` from most to least preferred (selection function).

        Must be a pure function of router/network state: every VA attempt,
        the ``Router.va_options`` oracle and the guard all call it.
        """
        return ports
