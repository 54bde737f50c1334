"""Property-based tests shared by every topology.

For arbitrary fabric sizes: the opposite-port map is an involution, the
neighbour table is symmetric, the link graph is connected, and the escape
(dimension-order) walk reaches every destination minimally while its
dateline VC classes only ever step downward — the invariants the Duato
deadlock-freedom argument rests on (see repro.noc.topology's docstring).
The last test holds every routing query to a brute-force oracle that reads
nothing but the neighbour table.
"""

from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.noc.topology import (
    EAST,
    LOCAL,
    NORTH,
    RING_CCW,
    RING_CW,
    SOUTH,
    WEST,
    MeshTopology,
    RingTopology,
    TorusTopology,
)

dims = st.integers(min_value=2, max_value=9)
ring_sizes = st.integers(min_value=4, max_value=40)


def topologies():
    """Strategy yielding arbitrary instances of every fabric kind."""
    grids = st.tuples(st.sampled_from([MeshTopology, TorusTopology]), dims, dims).map(
        lambda t: t[0](t[1], t[2])
    )
    rings = ring_sizes.map(RingTopology)
    return st.one_of(grids, rings)


def bfs_distances(topo, dst):
    """Hop count of every node to ``dst``, from the neighbour table alone."""
    dist = {dst: 0}
    frontier = deque([dst])
    while frontier:
        node = frontier.popleft()
        for nbr in topo.neighbor[node][1:]:
            if nbr >= 0 and nbr not in dist:
                dist[nbr] = dist[node] + 1
                frontier.append(nbr)
    return dist


@given(topologies())
@settings(max_examples=60)
def test_opposite_is_an_involution(topo):
    for port in range(topo.num_ports):
        assert topo.opposite[topo.opposite[port]] == port
    assert topo.opposite[LOCAL] == LOCAL


@given(topologies())
@settings(max_examples=60)
def test_neighbor_table_is_symmetric(topo):
    for node in range(topo.num_nodes):
        assert topo.neighbor[node][LOCAL] == -1
        for port in range(1, topo.num_ports):
            nbr = topo.neighbor[node][port]
            if nbr >= 0:
                assert topo.neighbor[nbr][topo.opposite[port]] == node


@given(topologies())
@settings(max_examples=60)
def test_link_graph_is_connected(topo):
    assert len(bfs_distances(topo, 0)) == topo.num_nodes


@given(topologies())
@settings(max_examples=30)
def test_escape_routing_reaches_every_destination_minimally(topo):
    for src in range(topo.num_nodes):
        for dst in range(0, topo.num_nodes, max(1, topo.num_nodes // 9)):
            cur, hops = src, 0
            while cur != dst:
                port = topo.dimension_order_port(cur, dst)
                assert port != LOCAL
                cur = topo.neighbor[cur][port]
                hops += 1
                assert hops <= topo.num_nodes, "escape walk must terminate"
            assert hops == topo.hop_distance(src, dst)
            assert topo.dimension_order_port(dst, dst) == LOCAL


@given(topologies())
@settings(max_examples=30)
def test_escape_classes_never_step_upward_within_a_dimension(topo):
    # Along any escape walk, the dateline class may only drop (1 -> 0 at
    # the wrap edge) while the output port stays the same; a class increase
    # without a dimension change would close a channel-dependency cycle.
    for src in range(topo.num_nodes):
        for dst in range(0, topo.num_nodes, max(1, topo.num_nodes // 9)):
            cur = src
            prev_port = None
            prev_cls = None
            while cur != dst:
                port = topo.dimension_order_port(cur, dst)
                cls = topo.escape_class(cur, dst)
                assert 0 <= cls < topo.num_escape_classes
                if port == prev_port:
                    assert cls <= prev_cls
                prev_port, prev_cls = port, cls
                cur = topo.neighbor[cur][port]


@given(topologies())
@settings(max_examples=40)
def test_minimal_ports_make_progress(topo):
    for node in range(topo.num_nodes):
        for dst in range(0, topo.num_nodes, max(1, topo.num_nodes // 9)):
            ports = topo.minimal_ports(node, dst)
            if node == dst:
                assert ports == (LOCAL,)
                continue
            assert ports
            for port in ports:
                nbr = topo.neighbor[node][port]
                assert nbr >= 0
                assert topo.hop_distance(nbr, dst) == topo.hop_distance(node, dst) - 1


# The oracle's own statement of port order — X before Y, positive before
# negative — and of which ports step toward higher node ids.
PREFERENCE = {
    "mesh": (EAST, WEST, SOUTH, NORTH),
    "torus": (EAST, WEST, SOUTH, NORTH),
    "ring": (RING_CW, RING_CCW),
}
POSITIVE = {"mesh": (EAST, SOUTH), "torus": (EAST, SOUTH), "ring": (RING_CW,)}


def literal_steps(topo, node, port, count):
    """``count`` neighbour steps through ``port``, stopping at an edge."""
    out = []
    for _ in range(count):
        node = topo.neighbor[node][port]
        if node < 0:
            break
        out.append(node)
    return out


@given(topologies())
@example(MeshTopology(2, 2))
@example(MeshTopology(8, 8))  # the paper's fabric
@example(TorusTopology(2, 2))
@example(TorusTopology(8, 8))
@example(TorusTopology(5, 4))  # odd x even: antipodal ties in Y only
@example(TorusTopology(4, 6))  # even x even: ties in both dimensions
@example(RingTopology(4))
@example(RingTopology(7))
@example(RingTopology(8))
@settings(max_examples=25, deadline=None)
def test_routing_queries_match_a_brute_force_oracle(topo):
    order = PREFERENCE[topo.kind]
    positive = POSITIVE[topo.kind]
    x_ports = order[:2]
    lap = max(topo.width, topo.height)
    for node in range(topo.num_nodes):
        for port in order:
            for count in (0, 1, lap - 1, lap, 2 * lap + 1):
                want = literal_steps(topo, node, port, count)
                assert topo.path_nodes(node, port, count) == want
    for dst in range(topo.num_nodes):
        dist = bfs_distances(topo, dst)
        assert len(dist) == topo.num_nodes
        for node in range(topo.num_nodes):
            assert topo.hop_distance(node, dst) == dist[node]
            closer = tuple(
                port
                for port in order
                if dist.get(topo.neighbor[node][port]) == dist[node] - 1
            )
            assert topo.minimal_ports(node, dst) == (closer or (LOCAL,))
            for port in closer:
                run, cur = 0, node
                while dist.get(topo.neighbor[cur][port]) == dist[cur] - 1:
                    run, cur = run + 1, topo.neighbor[cur][port]
                assert topo.steps_to(node, dst, port) == run
            # The dimension-order walk: minimal, X first, and class 1
            # exactly while the rest of its current straight run still has
            # to cross the wrap edge.
            cur, taken, wraps = node, [], []
            while cur != dst:
                port = topo.dimension_order_port(cur, dst)
                nxt = topo.neighbor[cur][port]
                assert port == topo.minimal_ports(cur, dst)[0]
                taken.append((cur, port))
                wraps.append((nxt < cur) if port in positive else (nxt > cur))
                cur = nxt
            assert topo.dimension_order_port(dst, dst) == LOCAL
            assert len(taken) == dist[node]
            kinds = [port in x_ports for _, port in taken]
            assert kinds == sorted(kinds, reverse=True), "X hops come first"
            for i, (at, port) in enumerate(taken):
                run_end = i
                while run_end < len(taken) and taken[run_end][1] == port:
                    run_end += 1
                assert topo.escape_class(at, dst) == int(any(wraps[i:run_end]))
            assert topo.escape_class(dst, dst) == 0
