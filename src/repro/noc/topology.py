"""Topologies: node numbering, ports, neighbour arithmetic.

The simulator is topology-agnostic: every structural question a router,
network, routing algorithm, or traffic pattern needs answered goes through
a :class:`Topology` instance — node count, per-node port arity, the
neighbour and opposite-port maps, coordinate helpers, and the region-block
mapping used by :class:`~repro.core.regions.RegionMap`. A fabric is data
(its output ports per dimension, and whether the dimensions wrap) and the
routing queries are lookups in one small table per dimension
(:func:`_axis`), so the built-in fabrics are three settings of one rule:

:class:`MeshTopology`
    The paper's 2-D mesh. Nodes are numbered row-major: node ``n`` sits at
    ``(x, y) = (n % width, n // width)`` with ``x`` increasing eastward and
    ``y`` increasing southward. Five ports; port 0 (``LOCAL``) connects the
    attached core, ports 1-4 the mesh neighbours.
:class:`TorusTopology`
    The same grid with wrap-around links in both dimensions.
:class:`RingTopology`
    A bidirectional ring: one wrapped dimension, three ports (``LOCAL``,
    clockwise, counter-clockwise).

Escape routing and datelines
----------------------------

Deadlock freedom follows Duato's theory (see :mod:`repro.routing.base`):
the escape virtual channels only ever carry dimension-order traffic. On a
mesh, dimension-order routing alone is acyclic, so one escape class
suffices (``num_escape_classes == 1``). Wrap-around links close a cycle in
each directed ring of a torus or ring fabric, so those topologies split the
escape channels into **two dateline classes**: a packet travelling in a
ring uses class 0 while it is on the near side of its destination and
class 1 while on the far side (i.e. until it crosses the wrap edge). The
class is a pure function of ``(current node, destination)`` —
:meth:`Topology.escape_class`, read from the table in which :func:`_axis`
applies this rule — so it lives in the precomputed route table.
Within one directed ring, class-0 channels never use the wrap link and
class-1 channels are only used on the segment before the wrap, with the
only cross-class dependency being 1 -> 0 at the dateline; with dimensions
ordered X-then-Y the escape channel dependency graph is acyclic.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import permutations

from repro.util.errors import ConfigError
from repro.util.validate import require

__all__ = [
    "LOCAL",
    "NORTH",
    "EAST",
    "SOUTH",
    "WEST",
    "NUM_PORTS",
    "PORT_NAMES",
    "OPPOSITE",
    "RING_CW",
    "RING_CCW",
    "Topology",
    "MeshTopology",
    "TorusTopology",
    "RingTopology",
    "TOPOLOGY_KINDS",
    "make_topology",
    "num_escape_classes_for",
]

LOCAL = 0
NORTH = 1
EAST = 2
SOUTH = 3
WEST = 4
NUM_PORTS = 5
PORT_NAMES = ("local", "north", "east", "south", "west")
# OPPOSITE[p] is the input port on the neighbour that a flit leaving through
# output port p arrives on (flits leaving eastward arrive on the west port).
OPPOSITE = (LOCAL, SOUTH, WEST, NORTH, EAST)

# Ring ports: 1 steps to the next-higher node id (clockwise), 2 to the
# next-lower (counter-clockwise).
RING_CW = 1
RING_CCW = 2

_Span = namedtuple("_Span", "ports hops cls steps")
_HERE = _Span((), 0, 0, {})  # a == b: nothing to travel along this dimension


def _axis(extent: int, wrap: bool, ports: tuple[int, int]) -> list[list[_Span]]:
    """The geometry rule of one dimension, as a table over ``[a][b]``.

    An entry says how to travel from coordinate ``a`` to ``b``: the minimal
    ``ports`` (the dimension-order choice first), the ``hops`` that takes,
    the dateline ``cls`` of a hop through ``ports[0]``, and per port the
    ``steps`` to ``b`` going that way. The *direct* way stays off the wrap
    edge and the way *around* crosses it; an edge fabric has only the
    direct way (and reports its length for either port). The shorter way
    is minimal; a tie (antipodal coordinates of an even ring) makes both
    minimal and dimension order prefers the positive port. Dateline rule:
    a hop is class 0 unless the walk it belongs to still needs the wrap
    edge — the way around is class 1 until the wrap hop lands the packet
    on the destination's side, from where the way is direct.
    """
    pos, neg = ports
    table = [[_HERE] * extent for _ in range(extent)]
    for a, b in permutations(range(extent), 2):
        span = abs(b - a)
        direct, around = (pos, neg) if b > a else (neg, pos)
        far = extent - span if wrap else span
        if not wrap or span < far:
            ways = (direct,)
        elif far < span:
            ways = (around,)
        else:
            ways = (pos, neg)
        table[a][b] = _Span(
            ways, min(span, far), int(ways[0] == around), {direct: span, around: far}
        )
    return table


class Topology:
    """Geometry of a fabric: pure arithmetic, no simulation state.

    A cube-family fabric is its class attributes; ``__init__`` derives the
    neighbour table and the tables behind the routing queries from them:

    ``dim_ports`` / ``wrap``
        Per dimension, X first, its ``(positive, negative)`` output ports,
        and whether the dimensions close into rings.
    ``kind`` / ``num_ports`` / ``port_names`` / ``opposite``
        The registry name, per-node port arity, printable port names, and
        the opposite-port map (``opposite[p]`` is the input port a flit
        leaving through output port ``p`` arrives on).
    ``num_escape_classes``
        Dateline VC classes the escape network needs (1 when the
        dimension-order graph is already acyclic, 2 for wrap fabrics);
        ``NocConfig.escape_vcs`` is this count.

    A fabric of another shape populates, in its own ``__init__``,

    ``width`` / ``height`` / ``num_nodes``
        Logical grid extents (a ring is ``num_nodes x 1``) and node count.
    ``neighbor``
        ``neighbor[node][port]`` -> neighbour node id, or -1 where no link
        exists (always -1 for ``LOCAL``).

    and overrides the routing queries (``path_nodes`` needs only ``neighbor``).
    """

    kind = "abstract"
    num_ports = NUM_PORTS
    port_names = PORT_NAMES
    opposite = OPPOSITE
    num_escape_classes = 1
    dim_ports: tuple[tuple[int, int], ...] = ((EAST, WEST), (SOUTH, NORTH))
    wrap = False
    #: derating applied by the experiment scenarios to their mesh-calibrated
    #: injection rates: the ratio of this fabric's theoretical uniform-random
    #: saturation throughput to an equal-node mesh's, capped at 1.0 (loads
    #: are only ever derated, never inflated). Exactly 1.0 on the mesh, so
    #: multiplying by it is a float no-op and mesh rates stay bit-identical.
    saturation_scale = 1.0

    def __init__(self, width: int, height: int):
        self.check_size(width, height)
        self.width = width
        self.height = height
        self.num_nodes = width * height
        coords = [self.coords(node) for node in range(self.num_nodes)]
        # Per dimension: its ports, extent, and node-id stride of one step.
        dims = list(zip(self.dim_ports, (width, height), (1, width)))
        # _ways[node][dim][dst]: the axis entry from node's coordinate to
        # dst's. Each axis row is spread over destination *nodes* once and
        # shared by the nodes on that coordinate, so queries index by id.
        spread = [
            [[row[at[dim]] for at in coords] for row in _axis(extent, self.wrap, ports)]
            for dim, (ports, extent, _) in enumerate(dims)
        ]
        self._ways = [tuple(rows[c] for rows, c in zip(spread, at)) for at in coords]
        # neighbor[node][port] -> neighbour node id, or -1 at a fabric edge.
        self.neighbor: list[tuple[int, ...]] = []
        for node, at in enumerate(coords):
            row = [-1] * self.num_ports
            for ((pos, neg), extent, stride), c in zip(dims, at):
                for port, to in ((pos, c + 1), (neg, c - 1)):
                    if self.wrap or 0 <= to < extent:
                        row[port] = node + (to % extent - c) * stride
            self.neighbor.append(tuple(row))

    @classmethod
    def check_size(cls, width: int, height: int) -> None:
        """Reject extents too small for this fabric (its one minimum-size rule)."""
        require(
            width >= 2 and height >= 2,
            f"{cls.kind} must be at least 2x2, got {width}x{height}",
        )

    # -- coordinate helpers -------------------------------------------------
    def coords(self, node: int) -> tuple[int, int]:
        """Return ``(x, y)`` of ``node``."""
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        """Return the node id at ``(x, y)``."""
        require(
            0 <= x < self.width and 0 <= y < self.height,
            f"({x},{y}) outside {self.kind}",
        )
        return y * self.width + x

    def signature(self) -> tuple[str, int, int]:
        """Hashable identity of the fabric (kind and extents).

        Two topology instances with equal signatures are interchangeable;
        region maps and networks compare signatures, never instances.
        """
        return (self.kind, self.width, self.height)

    # -- routing queries ----------------------------------------------------
    def hop_distance(self, src: int, dst: int) -> int:
        """Minimal hop count between two nodes."""
        return sum(row[dst].hops for row in self._ways[src])

    def minimal_ports(self, node: int, dst: int) -> tuple[int, ...]:
        """Output ports on minimal paths from ``node`` to ``dst``.

        Returns ``(LOCAL,)`` when ``node == dst``; otherwise one or more
        link ports (one or two per productive dimension).
        """
        ports = ()
        for row in self._ways[node]:
            ports += row[dst].ports
        return ports or (LOCAL,)

    def dimension_order_port(self, node: int, dst: int) -> int:
        """The deterministic dimension-order output port (the escape path)."""
        for row in self._ways[node]:
            if row[dst].ports:
                return row[dst].ports[0]
        return LOCAL

    def escape_class(self, node: int, dst: int) -> int:
        """Dateline VC class for the escape hop leaving ``node`` toward ``dst``.

        Always 0 on fabrics whose dimension-order graph is acyclic; wrap
        fabrics return 0 or 1 (see the module docstring).
        """
        for row in self._ways[node]:
            if row[dst].ports:
                return row[dst].cls
        return 0

    def steps_to(self, node: int, dst: int, port: int) -> int:
        """Hops travelled in ``port``'s direction en route from ``node`` to ``dst``.

        Only meaningful for ports in ``minimal_ports(node, dst)`` — the
        DBAR selection function uses it to bound its congestion path walk.
        """
        for row in self._ways[node]:
            if port in row[dst].steps:
                return row[dst].steps[port]
        return 0

    @cached_property
    def _rays(self) -> list[list[list[int]]]:
        """``_rays[node][port]``: the walk through ``port`` to the edge, or one lap."""
        # Links are symmetric, so a fixed-port walk never joins a cycle
        # midway: it ends at an edge or back at ``node``.
        rays = [[[] for _ in row] for row in self.neighbor]
        for node, row in enumerate(self.neighbor):
            for port in range(1, len(row)):
                cur = row[port]
                while cur >= 0:
                    rays[node][port].append(cur)
                    cur = -1 if cur == node else self.neighbor[cur][port]
        return rays

    def path_nodes(self, node: int, port: int, stop: int) -> list[int]:
        """Nodes reached by repeatedly stepping through ``port`` from ``node``.

        Walks in the fixed direction ``port`` (a link port, not LOCAL) and
        collects nodes until ``stop`` steps have been taken or, on fabrics
        with edges, the boundary is hit. Used by the DBAR selection
        function to enumerate the routers whose congestion feeds a path
        estimate.
        """
        ray = self._rays[node][port]
        if len(ray) < stop and ray and ray[-1] == node:
            ray = ray * (stop // len(ray) + 1)  # past one lap the walk repeats
        return ray[:stop]

    # -- placement helpers --------------------------------------------------
    def corner_nodes(self) -> tuple[int, int, int, int]:
        """Four spread-out boundary nodes (used as memory-controller sites)."""
        return (
            self.node_at(0, 0),
            self.node_at(self.width - 1, 0),
            self.node_at(0, self.height - 1),
            self.node_at(self.width - 1, self.height - 1),
        )

    def center_nodes(self) -> tuple[int, int, int, int]:
        """Four nodes at the centre of the fabric (hotspot sites)."""
        cx, cy = self.width // 2, self.height // 2
        return (
            self.node_at(cx - 1, cy - 1),
            self.node_at(cx, cy - 1),
            self.node_at(cx - 1, cy),
            self.node_at(cx, cy),
        )

    def region_grid(self, cols: int, rows: int) -> list[int]:
        """Node -> region assignment for a ``cols`` x ``rows`` region split.

        Region ids are row-major. Uneven divisions are balanced with
        integer rounding (band sizes differ by at most one).
        """
        if cols < 1 or rows < 1 or cols > self.width or rows > self.height:
            raise ConfigError(
                f"cannot split {self.width}x{self.height} {self.kind} "
                f"into {cols}x{rows} regions"
            )
        col_of = band_index(self.width, cols)
        row_of = band_index(self.height, rows)
        assign = []
        for node in range(self.num_nodes):
            x, y = self.coords(node)
            assign.append(row_of[y] * cols + col_of[x])
        return assign

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.width}x{self.height})"


class MeshTopology(Topology):
    """Geometry of a ``width`` x ``height`` mesh.

    Pure arithmetic — holds no simulation state. Precomputes the neighbour
    table so the router hot loop never does coordinate math.
    """

    kind = "mesh"


class TorusTopology(Topology):
    """A ``width`` x ``height`` torus: the mesh grid plus wrap-around links.

    Minimal routing takes the shorter way around each dimension (ties
    prefer the positive — east/south — direction, matching dimension-order
    routing). The escape network is dimension-order with two dateline VC
    classes per dimension ring (module docstring).
    """

    kind = "torus"
    wrap = True
    num_escape_classes = 2


class RingTopology(Topology):
    """A bidirectional ring of ``num_nodes`` routers.

    Three ports per router: ``LOCAL``, ``RING_CW`` (toward the next-higher
    node id) and ``RING_CCW``. Logically a ``num_nodes x 1`` grid, so every
    coordinate helper works unchanged. Minimal routing takes the shorter
    way around (ties prefer clockwise); the escape network is the minimal
    direction with two dateline VC classes (module docstring).
    """

    kind = "ring"
    num_ports = 3
    port_names = ("local", "cw", "ccw")
    opposite = (LOCAL, RING_CCW, RING_CW)
    num_escape_classes = 2
    dim_ports = ((RING_CW, RING_CCW),)
    wrap = True

    def __init__(self, num_nodes: int):
        super().__init__(num_nodes, 1)
        # A bisection cut crosses 2 ring channels per direction vs ~sqrt(N)
        # for an equal-node mesh, so uniform-random saturation is ~2/sqrt(N)
        # of the mesh's (1.0 for N <= 4, 0.25 for the default 64 nodes).
        self.saturation_scale = min(1.0, 2.0 / num_nodes**0.5)

    @classmethod
    def check_size(cls, width: int, height: int) -> None:
        """A ring folds its extents into one loop of at least four nodes."""
        nodes = width * height
        require(nodes >= 4, f"ring needs at least 4 nodes, got {nodes}")

    def corner_nodes(self) -> tuple[int, int, int, int]:
        """Four equally spread nodes (memory-controller sites)."""
        n = self.num_nodes
        return (0, n // 4, n // 2, 3 * n // 4)

    def center_nodes(self) -> tuple[int, int, int, int]:
        """Four consecutive nodes around the ring's midpoint."""
        n = self.num_nodes
        m = n // 2
        return ((m - 1) % n, m, (m + 1) % n, (m + 2) % n)

    def region_grid(self, cols: int, rows: int) -> list[int]:
        """``cols * rows`` contiguous arcs, ids row-major like the grids."""
        regions = cols * rows
        if cols < 1 or rows < 1 or regions > self.num_nodes:
            raise ConfigError(
                f"cannot split {self.num_nodes}-node {self.kind} "
                f"into {cols}x{rows} regions"
            )
        return band_index(self.num_nodes, regions)


def band_index(extent: int, bands: int) -> list[int]:
    """Map each coordinate in [0, extent) to one of ``bands`` near-equal bands."""
    # Boundaries by rounding i*extent/bands, giving band sizes that differ
    # by at most one.
    return [min(bands - 1, coord * bands // extent) for coord in range(extent)]


_TOPOLOGY_CLASSES: dict[str, type] = {
    "mesh": MeshTopology,
    "torus": TorusTopology,
    "ring": RingTopology,
}

#: topology kinds accepted by ``NocConfig.topology``
TOPOLOGY_KINDS = tuple(_TOPOLOGY_CLASSES)


def _class_for(kind: str) -> type[Topology]:
    """The fabric class registered as ``kind`` (also asked by ``NocConfig``)."""
    cls = _TOPOLOGY_CLASSES.get(kind)
    if cls is None:
        raise ConfigError(f"unknown topology {kind!r}; choose one of {TOPOLOGY_KINDS}")
    return cls


def num_escape_classes_for(kind: str) -> int:
    """Dateline escape-VC classes topology ``kind`` needs (without building it)."""
    return _class_for(kind).num_escape_classes


def make_topology(config) -> Topology:
    """Build the topology a :class:`~repro.noc.config.NocConfig` names.

    A ring folds the ``width x height`` extents into a single
    ``width * height``-node loop so configs stay shape-compatible.
    """
    if config.topology == "ring":
        return RingTopology(config.num_nodes)
    return _class_for(config.topology)(config.width, config.height)
