"""Property-based tests for statistics filtering and trace round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.flit import Packet
from repro.noc.stats import NetworkStats, latency_summary
from repro.traffic.trace import Trace, TraceTrafficSource

packet_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=500),   # inject
        st.integers(min_value=1, max_value=400),   # latency
        st.integers(min_value=0, max_value=5),     # app
        st.booleans(),                              # is_global
        st.booleans(),                              # adversarial
    ),
    min_size=0,
    max_size=60,
)


def fill_stats(rows):
    stats = NetworkStats()
    for inject, latency, app, is_global, adversarial in rows:
        pkt = Packet(
            src=0, dst=1, length=1, inject_cycle=inject, app_id=app,
            is_global=is_global, is_adversarial=adversarial,
        )
        stats.record_ejection(pkt, inject + latency)
    return stats


@given(packet_rows)
def test_filters_partition_the_log(rows):
    """global + non-global = all; adversarial excluded subset <= all."""
    stats = fill_stats(rows)
    all_lat = stats.latencies(include_adversarial=True)
    glob = stats.latencies(include_adversarial=True, only_global=True)
    regional = stats.latencies(include_adversarial=True, only_global=False)
    assert len(glob) + len(regional) == len(all_lat)
    assert len(stats.latencies()) <= len(all_lat)


@given(packet_rows, st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=200))
def test_window_filter_matches_manual_count(rows, t0, span):
    stats = fill_stats(rows)
    window = (t0, t0 + span)
    expected = sum(
        1 for inject, _, _, _, adv in rows if t0 <= inject < t0 + span and not adv
    )
    assert len(stats.latencies(window=window)) == expected


@given(packet_rows)
def test_per_app_apl_consistent_with_filtered_mean(rows):
    stats = fill_stats(rows)
    per_app = stats.per_app_apl()
    for app, apl in per_app.items():
        manual = [
            lat for inject, lat, a, _, adv in rows if a == app and not adv
        ]
        if manual:
            assert apl == np.mean(manual)


@given(packet_rows)
def test_latencies_always_positive(rows):
    stats = fill_stats(rows)
    lat = stats.latencies(include_adversarial=True)
    assert (lat > 0).all()


trace_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),  # cycle
        st.integers(min_value=0, max_value=15),   # src
        st.integers(min_value=0, max_value=15),   # dst
        st.integers(min_value=1, max_value=5),    # length
        st.integers(min_value=0, max_value=3),    # app
        st.integers(min_value=0, max_value=1),    # vnet
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


class _Collector:
    def __init__(self):
        self.packets = []

    def inject(self, pkt):
        self.packets.append(pkt)


@given(trace_rows)
@settings(max_examples=40)
def test_trace_save_load_replay_roundtrip(tmp_path_factory, rows):
    trace = Trace.from_rows(rows)
    path = tmp_path_factory.mktemp("traces") / "t.npz"
    trace.save(path)
    loaded = Trace.load(path)
    assert np.array_equal(loaded.records, trace.records)
    sink = _Collector()
    src = TraceTrafficSource(loaded)
    for cycle in range(max(r[0] for r in rows) + 2):
        src.tick(cycle, sink)
    assert len(sink.packets) == len(rows)
    replayed = sorted((p.inject_cycle, p.src, p.dst, p.length) for p in sink.packets)
    original = sorted((c, s, d, ln) for c, s, d, ln, *_ in rows)
    assert replayed == original


#: ejected packets past anything a run logs: negative app ids, cycles
#: beyond 2**31 (the int64 columns), lengths and hop counts up to the
#: int32 ceiling
wide_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**40),  # inject
        st.integers(min_value=0, max_value=2**20),  # latency
        st.one_of(                                   # app
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-(2**31), max_value=2**31 - 1),
        ),
        st.integers(min_value=0, max_value=15),     # src
        st.integers(min_value=0, max_value=15),     # dst
        st.integers(min_value=1, max_value=2**31 - 1),  # length
        st.integers(min_value=0, max_value=2**31 - 1),  # hops
        st.booleans(),                               # is_global
        st.booleans(),                               # adversarial
    ),
    max_size=60,
)

COLUMNS = (
    "inject", "eject", "app", "src", "dst", "length", "hops", "is_global",
    "is_adversarial",
)


class Reference:
    """The log as NumPy arrays, queried with NumPy the way the log once was."""

    def __init__(self, rows):
        cols = [list(c) for c in zip(*rows)] or [[] for _ in range(9)]
        inject, latency, *rest = cols
        cols = [inject, [i + lat for i, lat in zip(inject, latency)], *rest]
        self.a = {
            name: np.asarray(col, dtype=bool if name.startswith("is_") else np.int64)
            for name, col in zip(COLUMNS, cols)
        }

    def mask(self, app=None, window=None, include_adversarial=False, only_global=None):
        a = self.a
        mask = np.ones(len(a["inject"]), dtype=bool)
        if app is not None:
            mask &= a["app"] == app
        if window is not None:
            mask &= (a["inject"] >= window[0]) & (a["inject"] < window[1])
        if not include_adversarial:
            mask &= ~a["is_adversarial"]
        if only_global is not None:
            mask &= a["is_global"] == only_global
        return mask

    def latencies(self, **kw):
        return (self.a["eject"] - self.a["inject"])[self.mask(**kw)]

    def apl(self, **kw):
        lat = self.latencies(**kw)
        return float(np.mean(lat)) if len(lat) else float("nan")

    def packet_count(self, **kw):
        return int(self.mask(**kw).sum())

    def apps(self):
        return sorted(int(x) for x in np.unique(self.a["app"]))

    def per_app_apl(self, window):
        return {app: self.apl(app=app, window=window) for app in self.apps() if app >= 0}

    def latency_classes(self, window, region_of):
        a, mask = self.a, self.mask(window=window)
        lat = (a["eject"] - a["inject"])[mask]
        app = a["app"][mask]
        native = (app >= 0) & (np.asarray(region_of)[a["dst"][mask]] == app)
        return {
            "native": lat[native],
            "foreign": lat[~native],
            "global": lat[a["is_global"][mask]],
        }


def assert_same(got, want):
    """Equal bit for bit, NaN included, down to the type and the key order."""
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same(got[key], want[key])
        return
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype
    np.testing.assert_equal(got, want)


@given(
    wide_rows,
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=1, max_value=2**40),
    st.lists(st.integers(min_value=-1, max_value=3), min_size=16, max_size=16),
)
def test_packed_log_matches_a_list_built_log(rows, t0, span, region_of):
    packed = NetworkStats()
    for inject, latency, app, src, dst, length, hops, is_global, adv in rows:
        pkt = Packet(
            src=src, dst=dst, length=length, inject_cycle=inject, app_id=app,
            is_global=is_global, is_adversarial=adv,
        )
        pkt.hops = hops
        packed.record_ejection(pkt, inject + latency)
    ref = Reference(rows)
    for name in COLUMNS:
        assert np.array_equal(
            np.asarray(getattr(packed, "_" + name), dtype=ref.a[name].dtype), ref.a[name]
        ), name
    window = (t0, t0 + span)
    assert packed.packet_count() == len(rows) - sum(adv for *_, adv in rows)
    assert_same(packed.apps(), ref.apps())
    for kw in (
        {},
        {"window": window},
        {"include_adversarial": True, "only_global": True},
        {"app": rows[0][2] if rows else 0, "only_global": False},
    ):
        assert_same(packed.apl(**kw), ref.apl(**kw))
        assert_same(packed.packet_count(**kw), ref.packet_count(**kw))
        assert_same(packed.latencies(**kw), ref.latencies(**kw))
    for w in (None, window):
        assert_same(packed.per_app_apl(w), ref.per_app_apl(w))
        # run_scenario's one walk answers the three summary queries.
        want = (packed.apl(window=w), packed.per_app_apl(w), packed.packet_count(window=w))
        got = packed.summary(w)
        assert type(got) is tuple and len(got) == 3
        for g, x in zip(got, want):
            assert_same(g, x)
    assert_same(
        packed.latency_classes(window, region_of), ref.latency_classes(window, region_of)
    )


def reference_summary(samples) -> dict:
    """``latency_summary`` as NumPy's own formulas give it."""
    a = np.asarray(samples, dtype=np.int64)
    if len(a) == 0:
        return {"count": 0}
    hist = np.bincount(np.frexp(a.astype(np.float64))[1] - 1)
    return {
        "count": int(len(a)),
        "mean": float(np.mean(a)),
        "p50": float(np.percentile(a, 50)),
        "p95": float(np.percentile(a, 95)),
        "p99": float(np.percentile(a, 99)),
        "max": float(np.max(a)),
        "hist": [int(x) for x in hist],
    }


def assert_summary_matches(samples):
    got, want = latency_summary(samples), reference_summary(samples)
    assert_same(got, want)
    for key, value in want.items():
        assert type(got[key]) is type(value), key
    for got_bin, want_bin in zip(got.get("hist", []), want.get("hist", [])):
        assert type(got_bin) is type(want_bin) is int


@given(st.lists(st.integers(min_value=1, max_value=2**40), max_size=200))
def test_latency_summary_matches_numpy(latencies):
    assert_summary_matches(np.array(latencies, dtype=np.int64))


@pytest.mark.parametrize(
    "samples",
    [
        [7],
        [3, 10],
        [10, 3],
        [42] * 97,
        [2**k for k in range(40)],
        [2**k for k in reversed(range(12))] * 3,
        np.random.default_rng(5).integers(1, 5000, size=100_000),
        np.random.default_rng(6).geometric(0.01, size=100_000),
    ],
    ids=["n1", "n2", "n2-reversed", "all-equal", "powers-of-two",
         "powers-of-two-repeated", "1e5-uniform", "1e5-geometric"],
)
def test_latency_summary_matches_numpy_at_the_edges(samples):
    assert_summary_matches(samples)
