"""The lookahead scan against a literal per-cycle oracle.

``tick`` itself runs ``next_injection_cycle``, so comparing a ticked run
with a fast-forwarded one compares the scan with itself. The reference
here never touches the scan: it draws one ``rng.random(n)`` per active
cycle and calls ``make_packet`` per firing node in ascending order — the
naive order the module docstring promises — and the real source, driven
by an arbitrary interleaving of lookaheads, jumps and ticks, must produce
the same packets and leave its generator in the same state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regions import RegionMap
from repro.noc.topology import MeshTopology
from repro.traffic.adversarial import AdversarialTrafficSource
from repro.traffic.patterns import UniformPattern
from repro.traffic.regional import RegionalAppTraffic
from repro.traffic.synthetic import BimodalLengths, SyntheticTrafficSource

TOPO = MeshTopology(8, 8)
CUT = SyntheticTrafficSource._DENSE_FIRE
MEAN_LENGTH = BimodalLengths().mean


def fields(pkt, cycle):
    return (cycle, pkt.src, pkt.dst, pkt.length, pkt.app_id, pkt.vnet, pkt.is_global)


def oracle(source, horizon):
    """Packets of cycles ``[0, horizon)``, generated the naive per-cycle way."""
    rows = []
    for cycle in range(horizon):
        stopped = source.stop is not None and cycle >= source.stop
        if cycle < source.start or stopped or source.p_packet <= 0.0:
            continue
        fired = source.rng.random(len(source.nodes)) < source.p_packet
        for node in source.nodes[fired].tolist():
            pkt = source.make_packet(node, cycle)
            if pkt is not None:
                rows.append(fields(pkt, cycle))
    return rows


class Capture:
    """Network stand-in: records what ``tick`` injects, and when."""

    def __init__(self):
        self.rows = []
        self.cycle = 0

    def inject(self, pkt):
        assert pkt.inject_cycle == self.cycle
        self.rows.append(fields(pkt, self.cycle))


def drive(source, ops, cycles):
    """Run ``source`` to ``cycles`` the way a simulator may: tick a cycle,
    look ahead without moving, or jump to where the lookahead allows."""
    net = Capture()
    ops = iter(ops)
    while net.cycle < cycles:
        op, arg = next(ops, ("tick", cycles))
        limit = min(net.cycle + arg, cycles)
        if op == "tick":
            while net.cycle < limit:
                source.tick(net.cycle, net)
                net.cycle += 1
            continue
        nxt = source.next_injection_cycle(net.cycle, limit, net)
        assert nxt is None or nxt >= net.cycle
        if op == "jump":
            net.cycle = limit if nxt is None else min(nxt, limit)
    return net.rows


def check(make, ops, cycles):
    real, ref = make(), make()
    got = drive(real, ops, cycles)
    # The scan may have run ahead of the clock: count what it buffered and
    # take the oracle to the same watermark before comparing generators.
    got += [fields(pkt, c) for c, pkts in real._pending for pkt in pkts]
    assert got == oracle(ref, max(cycles, real._scanned_until))
    assert real.rng.bit_generator.state == ref.rng.bit_generator.state


def rate_for(q, n):
    """Flits/node/cycle at which a cycle fires with probability ``q``."""
    return (1.0 - (1.0 - q) ** (1.0 / n)) * MEAN_LENGTH


seeds = st.integers(min_value=0, max_value=2**31)
# Sparse (block scan), either side of the cut-off, at it, and dense.
fire_probs = st.one_of(
    st.sampled_from([0.0, 0.004, 0.05, CUT - 0.01, CUT, CUT + 0.01, 0.5, 0.97]),
    st.floats(min_value=0.0, max_value=0.99),
)
windows = st.tuples(
    st.integers(min_value=0, max_value=300),
    st.one_of(st.none(), st.integers(min_value=0, max_value=1200)),
)
op_lists = st.lists(
    st.tuples(st.sampled_from(["tick", "look", "jump"]), st.integers(1, 700)),
    max_size=25,
)
cycle_counts = st.integers(min_value=1, max_value=1200)


@given(st.integers(1, 64), fire_probs, seeds, windows, op_lists, cycle_counts)
@settings(max_examples=80, deadline=None)
def test_synthetic_scan_matches_per_cycle_oracle(n, q, seed, window, ops, cycles):
    nodes = [(5 * i + 3) % 64 for i in range(n)]  # 5 is coprime to 64: n distinct nodes

    def make():
        return SyntheticTrafficSource(
            nodes, rate_for(q, n), UniformPattern(TOPO), app_id=2, seed=seed,
            region_map=RegionMap.quadrants(TOPO), start=window[0], stop=window[1],
        )

    check(make, ops, cycles)


@given(st.integers(1, 63), fire_probs, seeds, windows, op_lists, cycle_counts)
@settings(max_examples=80, deadline=None)
def test_regional_scan_matches_per_cycle_oracle(n, q, seed, window, ops, cycles):
    region_map = RegionMap(TOPO, [0] * n + [1] * (64 - n))

    def make():
        return RegionalAppTraffic(
            region_map, 0, rate_for(q, n), seed, start=window[0], stop=window[1]
        )

    check(make, ops, cycles)


@given(st.integers(2, 8), st.integers(2, 8), fire_probs, seeds, windows, op_lists,
       cycle_counts)
@settings(max_examples=60, deadline=None)
def test_adversarial_scan_matches_per_cycle_oracle(w, h, q, seed, window, ops, cycles):
    topo = MeshTopology(w, h)

    def make():
        return AdversarialTrafficSource(
            topo, seed, rate=rate_for(q, w * h), start=window[0], stop=window[1]
        )

    check(make, ops, cycles)
