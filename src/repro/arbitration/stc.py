"""Idealized STC — the paper's RO_Rank comparison point.

STC (Das et al., MICRO 2009) is application-aware but region-oblivious:

* **Ranking** — applications are ranked by network intensity each ranking
  interval; *less* intensive applications get *higher* priority (their
  requests are likely stall-time critical and cheap to accelerate).
  The original uses L1 MPKI; the paper idealizes this to an oracle that
  "always finds the optimal application rankings based on load intensity",
  which we realize by ranking on per-application flits injected during the
  previous interval (measured inside the simulator, i.e. an exact
  intensity oracle — substitution #3 in DESIGN.md).
* **Batching** — packets are grouped into time batches; older batches
  always beat younger batches regardless of rank, which bounds starvation.
  Within a batch, rank decides; within an application, round-robin.

Both behaviours the paper criticizes are therefore present: batching can
keep boosting a misbehaving application's backlog (Fig. 17 discussion),
and ranking cannot distinguish an application's regional from its global
traffic (Section III.A).
"""

from __future__ import annotations

from repro.arbitration.base import ArbitrationPolicy, top_class
from repro.util.validate import check_positive

__all__ = ["StcPolicy"]


class StcPolicy(ArbitrationPolicy):
    """RO_Rank: oracle intensity ranking + time batching.

    Parameters
    ----------
    rank_interval:
        Cycles between rank recomputations (paper's STC re-ranks per
        interval).
    batch_period:
        Cycles per batch; a packet's batch is ``inject_cycle // batch_period``.
    """

    def __init__(self, rank_interval: int = 2000, batch_period: int = 400):
        super().__init__()
        check_positive(rank_interval, "rank_interval")
        check_positive(batch_period, "batch_period")
        self.rank_interval = rank_interval
        self.batch_period = batch_period
        # app_id -> rank (0 = highest priority). Unknown apps get a rank
        # worse than any known one so fresh traffic cannot jump the queue.
        self.ranks: dict[int, int] = {}
        self._default_rank = 1 << 20
        self._last_counts: dict[int, int] = {}

    def attach(self, network) -> None:
        super().attach(network)
        self.ranks = {}
        self._last_counts = {}

    # -- priority: the oldest batch, then the best rank, at every stage ---------
    def _key(self, invc):
        pkt = invc.pkt
        batch = pkt.inject_cycle // self.batch_period
        return (batch, self.ranks.get(pkt.app_id, self._default_rank))

    def va_out_top(self, router, out_vc: int, mask: int) -> int:
        return top_class(router.vcs, mask, self._key)

    def sa_top(self, router, mask: int) -> int:
        return top_class(router.vcs, mask, self._key)

    # -- ranking ------------------------------------------------------------------
    def end_network_cycle(self, network, cycle: int) -> None:
        if cycle == 0 or cycle % self.rank_interval:
            return
        counts = network.app_flits_injected
        delta = {
            app: counts[app] - self._last_counts.get(app, 0)
            for app in counts
        }
        self._last_counts = dict(counts)
        # Ascending intensity -> ascending rank number -> descending priority
        # for intensive apps. Stable sort on app id keeps ties deterministic.
        ordered = sorted(delta, key=lambda app: (delta[app], app))
        self.ranks = {app: i for i, app in enumerate(ordered)}

    def fast_forward_idle(self, network, start: int, stop: int) -> None:
        # Rank boundaries inside an idle gap are NOT all equivalent: the
        # first one ranks on the real deltas accumulated before the gap;
        # the second sees zero injection since then and re-ranks every app
        # to (delta=0 -> app-id order). Third and later boundaries repeat
        # the second exactly, so applying the first two reproduces the
        # naive loop's end state for a gap of any length.
        m = self.rank_interval
        k = max(start, 1)
        k += (-k) % m
        if k < stop:
            self.end_network_cycle(network, k)
            if k + m < stop:
                self.end_network_cycle(network, k + m)
