"""Unit tests for statistics collection."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.noc.flit import Packet
from repro.noc.stats import NetworkStats, latency_summary


def eject(stats, src=0, dst=1, app=0, inject=0, eject_cycle=10, length=1,
          is_global=False, adversarial=False):
    pkt = Packet(
        src=src, dst=dst, length=length, inject_cycle=inject, app_id=app,
        is_global=is_global, is_adversarial=adversarial,
    )
    stats.record_ejection(pkt, eject_cycle)


def throughput_flits(stats, window):
    """Accepted flits per cycle over an *ejection*-cycle window."""
    t0, t1 = window
    flits = sum(
        length for eject_cycle, length in zip(stats._eject, stats._length)
        if t0 <= eject_cycle < t1
    )
    return flits / (t1 - t0)


class TestLatencyStats:
    def test_empty_is_count_only(self):
        assert latency_summary(np.array([], dtype=np.int64)) == {"count": 0}

    def test_summary_values(self):
        summary = latency_summary(np.arange(1, 101))
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)
        assert summary["max"] == 100


class TestNetworkStats:
    def test_apl(self):
        stats = NetworkStats()
        eject(stats, inject=0, eject_cycle=10)
        eject(stats, inject=5, eject_cycle=25)
        assert stats.apl() == pytest.approx(15.0)
        assert stats.packets_ejected == 2

    def test_window_filters_on_injection_cycle(self):
        stats = NetworkStats()
        eject(stats, inject=5, eject_cycle=100)
        eject(stats, inject=50, eject_cycle=60)
        assert stats.apl(window=(0, 10)) == pytest.approx(95.0)
        assert stats.apl(window=(40, 60)) == pytest.approx(10.0)
        assert stats.packet_count(window=(0, 60)) == 2

    def test_per_app_breakdown(self):
        stats = NetworkStats()
        eject(stats, app=0, inject=0, eject_cycle=10)
        eject(stats, app=1, inject=0, eject_cycle=30)
        assert stats.per_app_apl() == {0: 10.0, 1: 30.0}
        assert stats.apps() == [0, 1]

    def test_adversarial_excluded_by_default(self):
        stats = NetworkStats()
        eject(stats, inject=0, eject_cycle=10)
        eject(stats, inject=0, eject_cycle=1000, adversarial=True)
        assert stats.apl() == pytest.approx(10.0)
        assert stats.apl(include_adversarial=True) == pytest.approx(505.0)

    def test_global_filter(self):
        stats = NetworkStats()
        eject(stats, inject=0, eject_cycle=10, is_global=False)
        eject(stats, inject=0, eject_cycle=40, is_global=True)
        assert stats.apl(only_global=True) == pytest.approx(40.0)
        assert stats.apl(only_global=False) == pytest.approx(10.0)

    def test_apl_of_empty_filter_is_nan(self):
        stats = NetworkStats()
        eject(stats, app=0)
        assert math.isnan(stats.apl(app=3))

    def test_throughput_counts_flits_by_ejection(self):
        stats = NetworkStats()
        eject(stats, inject=0, eject_cycle=10, length=5)
        eject(stats, inject=0, eject_cycle=15, length=1)
        eject(stats, inject=0, eject_cycle=100, length=5)
        assert throughput_flits(stats, window=(0, 20)) == pytest.approx(6 / 20)

    def test_query_sees_rows_recorded_after_it(self):
        stats = NetworkStats()
        eject(stats, inject=0, eject_cycle=10)
        assert stats.apl() == 10.0
        eject(stats, inject=0, eject_cycle=30)
        assert stats.apl() == 20.0

    def test_latency_classes_split_by_destination_region(self):
        stats = NetworkStats()
        region_of = [0, 0, 1, 1]
        eject(stats, app=0, dst=1, inject=5, eject_cycle=15)  # native
        eject(stats, app=0, dst=2, inject=5, eject_cycle=25, is_global=True)
        eject(stats, app=-1, dst=0, inject=5, eject_cycle=35)  # unattributed
        eject(stats, app=1, dst=3, inject=5, eject_cycle=45, adversarial=True)
        eject(stats, app=1, dst=3, inject=50, eject_cycle=55)  # outside window
        classes = stats.latency_classes((0, 10), region_of)
        assert classes["native"].tolist() == [10]
        assert classes["foreign"].tolist() == [20, 30]
        assert classes["global"].tolist() == [20]

    def test_per_app_excludes_unattributed(self):
        stats = NetworkStats()
        eject(stats, app=-1)
        eject(stats, app=2)
        assert list(stats.per_app_apl()) == [2]

    @pytest.mark.parametrize("query", ["apl", "packet_count", "latencies"])
    def test_misspelt_filter_raises(self, query):
        stats = NetworkStats()
        eject(stats)
        with pytest.raises(TypeError):
            getattr(stats, query)(windw=(0, 10))

    def test_summary_queries_stream_the_log(self):
        """A run's summary allocates O(apps), not O(packets)."""
        stats = NetworkStats()
        pkt = Packet(src=0, dst=1, length=1, inject_cycle=0)
        for i in range(100_000):
            pkt.inject_cycle, pkt.app_id = 5_000 + i, i % 4
            pkt.is_adversarial = i % 7 == 0
            stats.record_ejection(pkt, pkt.inject_cycle + 30 + i % 50)
        window = (20_000, 90_000)
        tracemalloc.start()
        try:
            apl = stats.apl(window=window)
            per_app = stats.per_app_apl(window=window)
            count = stats.packet_count(window=window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert (apl, count) == (54.5, 60_000)
        assert per_app == {0: 54.0, 1: 55.0, 2: 54.0, 3: 55.0}
