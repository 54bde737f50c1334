"""The RAIR arbitration policy: VC regionalization + MSP + DPA combined.

This is the paper's proposed technique (Section IV.E "putting it all
together") expressed as an :class:`~repro.arbitration.base.ArbitrationPolicy`:

* **native/foreign identification** — each router carries the application
  id of its node (from the :class:`~repro.core.regions.RegionMap` installed
  on the network); the input VC caches whether its resident packet's app id
  matches (done at head-flit arrival by the router).
* **VA_in** — untouched contention-wise, but the VC *request preference*
  is class-aware: foreign packets request free global VCs first, native
  packets free regional VCs first (falling back to the other class, since
  classification is by priority, not partition).
* **VA_out** — global output VCs always prefer foreign requesters;
  regional output VCs follow the DPA state (Section IV.A rules).
* **SA_in / SA_out** — the DPA state decides whether native or foreign
  flits win the switch (enabled by ``stages``; ``Stage.VA`` alone gives
  the paper's RAIR_VA ablation).
* **DPA** — per-router occupied-VC counters (maintained by the router on
  head arrival / tail departure) feed the hysteresis update once per
  cycle; the result is used from the *next* cycle, mirroring the paper's
  off-critical-path implementation. ``DpaConfig.mode`` pins the priority
  for the RAIR_NativeH / RAIR_ForeignH variants of Fig. 12.

Scalability note (paper Section VI): all state is two counters and one bit
per router — nothing scales with the number of regions or applications.
"""

from __future__ import annotations

from repro.arbitration.base import ArbitrationPolicy
from repro.core.dpa import DpaConfig, hysteresis_update
from repro.core.msp import Stage
from repro.core.vc_regionalization import preferred_class
from repro.noc.config import VcClass

__all__ = ["RairPolicy"]


class RairPolicy(ArbitrationPolicy):
    """Region-aware interference reduction (RA_RAIR and its ablation variants).

    Parameters
    ----------
    stages:
        Where MSP enforces priority: ``Stage.VA`` (RAIR_VA),
        ``Stage.ALL`` (RAIR_VA+SA — the default, full RAIR).
    dpa:
        DPA configuration; ``DpaConfig(mode="native")`` /
        ``DpaConfig(mode="foreign")`` give the static-priority variants.
    """

    def __init__(self, stages: Stage = Stage.ALL, dpa: DpaConfig | None = None):
        super().__init__()
        if not isinstance(stages, Stage):
            raise TypeError(f"stages must be a Stage flag, got {stages!r}")
        self.dpa = dpa or DpaConfig()
        self._dpa_dynamic = self.dpa.mode == "dynamic"
        # A stage MSP leaves out is round-robin (Stage.VA is RAIR_VA).
        if not stages & Stage.VA:
            self.va_out_top = None
        if not stages & Stage.SA:
            self.sa_top = None

    def attach(self, network) -> None:
        super().attach(network)
        # Initial DPA state: foreign-high by default (paper Section IV.C
        # case 3 gives foreign priority "by default"); static modes pin it.
        init = self.dpa.mode == "native"
        for router in network.routers:
            router.native_high = init

    # -- VA_in preference -------------------------------------------------------
    def choose_vc(self, router, invc, port: int, mask: int) -> int:
        """Class-aware VC request: the preferred class first, when it has a free VC."""
        mask = mask & router.class_mask[preferred_class(invc.is_native)] or mask
        return super().choose_vc(router, invc, port, mask)

    # -- priority classes as masks ------------------------------------------------
    # Native and foreign are sets the router already keeps (``native_mask``),
    # so each stage's top class is one AND; an empty favoured class leaves
    # every candidate tied in the other.
    def va_out_top(self, router, out_vc: int, mask: int) -> int:
        """Global VCs favour foreign requesters, regional VCs the DPA side."""
        cls = router.vc_class_of[out_vc]
        if cls is VcClass.ESCAPE:
            # Escape VCs sit outside the regional/global classification
            # (Section IV.D); their allocation stays priority-neutral so
            # the deadlock-free fallback lane is equally reachable.
            return mask
        if cls is VcClass.REGIONAL and router.native_high:
            return mask & router.native_mask or mask
        return mask & ~router.native_mask or mask

    def sa_top(self, router, mask: int) -> int:
        """Both SA steps favour the side DPA names."""
        if router.native_high:
            return mask & router.native_mask or mask
        return mask & ~router.native_mask or mask

    # -- DPA update -----------------------------------------------------------------
    def end_router_cycle(self, router, cycle: int) -> None:
        # The hysteresis is a fixed point of unchanged counters, so it only
        # needs running on cycles where a head arrived or a tail left.
        if self._dpa_dynamic and router.ovc_dirty:
            router.ovc_dirty = False
            old = router.native_high
            new = hysteresis_update(old, router.ovc_n, router.ovc_f, self.dpa.delta)
            if new != old:
                router.native_high = new
                # Same hot-path guard as every kernel event: one pointer
                # comparison when untraced, and only on actual transitions
                # (network is None only when the policy is driven bare,
                # outside a Network — unit tests do that).
                tr = self.network.trace if self.network is not None else None
                if tr is not None:
                    tr.dpa_flip(cycle, router.node, new, router.ovc_n, router.ovc_f)
