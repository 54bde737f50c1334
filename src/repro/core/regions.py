"""Region maps: which application owns which node.

A *region* is the set of nodes an application's threads are mapped to
(paper Section II: regional behaviours RB-1/RB-2 — concurrently running
applications, clustered placement). The region map is the only global
knowledge RAIR needs: each router is tagged with the application number
assigned to its node, and a packet traversing it is *native* if the tags
match, *foreign* otherwise (Section IV.E).

Builders cover the layouts of the paper's figures: left/right halves
(Fig. 8), quadrants (Figs. 11 and 16), and an m x n grid for the
six-application scenario (Fig. 13). Raw assignments are supported for
custom studies; nodes may be left unassigned (app id -1, e.g. dedicated
memory-controller tiles), in which case all traffic through them is foreign.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.noc.topology import Topology
from repro.util.errors import ConfigError

__all__ = ["RegionMap"]

UNASSIGNED = -1


class RegionMap:
    """Immutable node -> application assignment over a topology.

    Application ids double as region ids: the paper assigns one region per
    application, and RAIR's per-router state is independent of the region
    count (Section VI scalability discussion), so nothing here limits how
    many regions a mesh may carry.
    """

    def __init__(self, topology: Topology, node_app: Sequence[int]):
        if len(node_app) != topology.num_nodes:
            raise ConfigError(
                f"node_app has {len(node_app)} entries for {topology.num_nodes} nodes"
            )
        apps = set()
        for node, app in enumerate(node_app):
            if app != UNASSIGNED and app < 0:
                raise ConfigError(f"node {node} has invalid app id {app}")
            if app != UNASSIGNED:
                apps.add(app)
        self.topology = topology
        self.node_app: tuple[int, ...] = tuple(int(a) for a in node_app)
        self.apps: tuple[int, ...] = tuple(sorted(apps))

    # -- constructors ----------------------------------------------------------
    @classmethod
    def single(cls, topology: Topology, app: int = 0) -> "RegionMap":
        """One region covering the whole chip (a conventional NoC)."""
        return cls(topology, [app] * topology.num_nodes)

    @classmethod
    def halves(cls, topology: Topology, vertical: bool = True) -> "RegionMap":
        """Two regions: left/right halves (Fig. 8) or top/bottom."""
        assign = []
        for node in range(topology.num_nodes):
            x, y = topology.coords(node)
            if vertical:
                assign.append(0 if x < topology.width // 2 else 1)
            else:
                assign.append(0 if y < topology.height // 2 else 1)
        return cls(topology, assign)

    @classmethod
    def quadrants(cls, topology: Topology) -> "RegionMap":
        """Four regions (Figs. 11 and 16): app i in quadrant i.

        Numbering: 0 = north-west, 1 = north-east, 2 = south-west,
        3 = south-east.
        """
        return cls.grid(topology, 2, 2)

    @classmethod
    def grid(cls, topology: Topology, cols: int, rows: int) -> "RegionMap":
        """``cols`` x ``rows`` near-equal regions, row-major ids.

        Delegates the node -> region assignment to the topology
        (:meth:`~repro.noc.topology.Topology.region_grid`): rectangular
        blocks on the grids, contiguous arcs on a ring. Uneven divisions
        are balanced with integer rounding (an 8-wide mesh split into 3
        columns gets widths 3/3/2), which is how we realize the paper's
        six-region (3 x 2) configuration on an 8x8 mesh.
        """
        return cls(topology, topology.region_grid(cols, rows))

    # -- queries -----------------------------------------------------------------
    @property
    def num_apps(self) -> int:
        """Number of distinct applications (regions)."""
        return len(self.apps)

    def app_of(self, node: int) -> int:
        """Application assigned to ``node`` (-1 if unassigned)."""
        return self.node_app[node]

    def nodes_of(self, app: int) -> tuple[int, ...]:
        """All nodes belonging to application ``app``."""
        return tuple(n for n, a in enumerate(self.node_app) if a == app)

    def is_global_pair(self, src: int, dst: int) -> bool:
        """True when ``src`` and ``dst`` lie in different regions."""
        return self.node_app[src] != self.node_app[dst]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RegionMap)
            and other.node_app == self.node_app
            and other.topology.signature() == self.topology.signature()
        )

    def __hash__(self) -> int:
        return hash((self.topology.signature(), self.node_app))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RegionMap({self.topology!r}, {self.num_apps} apps)"
