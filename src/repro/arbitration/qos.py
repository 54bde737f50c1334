"""Weighted-bandwidth QoS arbitration and the RAIR+QoS hybrid.

Section VI of the paper distinguishes interference *reduction* from QoS —
"it is able to enforce the pre-determined bandwidth allocation set by the
OS" — and flags integrating RAIR with prior QoS mechanisms as future
work. This module implements that future-work item in the simplest
credible form:

* :class:`WeightedQosPolicy` — frame-based weighted bandwidth allocation
  in the spirit of Preemptive Virtual Clock (Grot et al., MICRO 2009):
  each application holds a per-frame flit budget proportional to its OS-
  assigned weight; applications still inside their budget outrank the
  ones that have overdrawn, with round-robin inside each band. Budgets
  reset every frame, bounding both starvation and history accumulation
  (PVC's "preemption" of stale credit is modelled by the frame reset).
* :class:`RairQosPolicy` — the hybrid: the QoS band is the primary key
  (protect the OS allocation), RAIR's region-aware priority breaks ties
  *inside* a band (reduce interference among conforming flows). This is
  exactly the layering the paper sketches: "integrate RAIR with prior QoS
  mechanisms to further improve service quality".

Both policies track *delivered* flits per application inside the network
(counted at switch traversal), which is what a bandwidth guarantee is
about; offered load stays with the STC oracle counters.
"""

from __future__ import annotations

from repro.arbitration.base import ArbitrationPolicy
from repro.core.rair import RairPolicy
from repro.util.errors import ConfigError
from repro.util.validate import check_positive

__all__ = ["WeightedQosPolicy", "RairQosPolicy"]


class WeightedQosPolicy(ArbitrationPolicy):
    """Frame-based weighted bandwidth allocation.

    Parameters
    ----------
    weights:
        ``app_id -> weight`` (positive). Applications missing from the map
        get ``default_weight``; weight 0 is allowed there to model
        best-effort traffic.
    frame_cycles:
        Frame length. Each frame, app ``a`` may deliver
        ``weight_a / sum(weights) * capacity_estimate`` flits in-budget;
        beyond that its packets drop to the over-budget band.
    capacity_per_node:
        Estimated deliverable flits/node/cycle used to size budgets
        (defaults to a conservative 0.3, close to the calibrated
        uniform-random knee).
    """

    name = "qos_weighted"
    uses_va_priority = True
    uses_sa_priority = True

    def __init__(
        self,
        weights: dict[int, float] | None = None,
        frame_cycles: int = 1000,
        capacity_per_node: float = 0.3,
        default_weight: float = 1.0,
    ):
        super().__init__()
        check_positive(frame_cycles, "frame_cycles")
        check_positive(capacity_per_node, "capacity_per_node")
        if default_weight < 0:
            raise ConfigError(f"default_weight must be >= 0, got {default_weight}")
        self.weights = dict(weights or {})
        for app, w in self.weights.items():
            if w < 0:
                raise ConfigError(f"weight of app {app} must be >= 0, got {w}")
        self.frame_cycles = frame_cycles
        self.capacity_per_node = capacity_per_node
        self.default_weight = default_weight
        # Snapshot of the network's per-app delivered-flit counters taken
        # at the start of the current frame.
        self._frame_start: dict[int, int] = {}
        self.budgets: dict[int, float] = {}
        self._frame_capacity = 0.0

    def attach(self, network) -> None:
        super().attach(network)
        self._frame_start = {}
        self._frame_capacity = (
            self.capacity_per_node * network.topology.num_nodes * self.frame_cycles
        )
        self._rebuild_budgets()

    def weight_of(self, app: int) -> float:
        """Effective weight of an application."""
        return self.weights.get(app, self.default_weight)

    def _rebuild_budgets(self) -> None:
        apps = set(self.weights)
        if self.network is not None:
            apps |= set(self.network.app_flits_delivered)
        total = sum(self.weight_of(a) for a in apps) or 1.0
        self.budgets = {
            a: self._frame_capacity * self.weight_of(a) / total for a in apps
        }

    # -- accounting -----------------------------------------------------------
    def delivered_in_frame(self, app: int) -> int:
        """Flits app ``app`` has pushed through switches this frame."""
        total = self.network.app_flits_delivered.get(app, 0)
        return total - self._frame_start.get(app, 0)

    def in_budget(self, app: int) -> bool:
        """Whether ``app`` is still inside its frame budget."""
        budget = self.budgets.get(app)
        if budget is None:
            self._rebuild_budgets()
            budget = self.budgets.get(app, 0.0)
        return self.delivered_in_frame(app) < budget

    # -- priority keys -----------------------------------------------------------
    def _band(self, invc) -> int:
        return 0 if self.in_budget(invc.pkt.app_id) else 1

    def va_out_priority(self, router, out_vc_class, invc):
        return self._band(invc)

    def sa_priority(self, router, invc):
        return self._band(invc)

    # -- frame roll-over ------------------------------------------------------------
    def end_network_cycle(self, network, cycle: int) -> None:
        if cycle and cycle % self.frame_cycles == 0:
            self._frame_start = dict(network.app_flits_delivered)
            self._rebuild_budgets()

    def fast_forward_idle(self, network, start: int, stop: int) -> None:
        # No flit is delivered during an idle gap, so every frame boundary
        # inside it takes the same delivered-counter snapshot and rebuilds
        # the same budgets — one application covers the whole gap.
        m = self.frame_cycles
        k = max(start, 1)
        k += (-k) % m
        if k < stop:
            self.end_network_cycle(network, k)


class RairQosPolicy(RairPolicy):
    """RAIR layered under a weighted-bandwidth guarantee.

    Priority key = (QoS band, RAIR key): conforming traffic always beats
    over-budget traffic; inside a band, RAIR's VC-regionalization / DPA
    rules order native vs foreign. DPA's self-throttling is preserved
    because the RAIR component is untouched.
    """

    name = "rair_qos"

    def __init__(self, qos: WeightedQosPolicy | None = None, **rair_kwargs):
        super().__init__(**rair_kwargs)
        self.name = "rair_qos"  # RairPolicy.__init__ derives a name; override it
        self.qos = qos or WeightedQosPolicy()

    def attach(self, network) -> None:
        super().attach(network)
        self.qos.attach(network)

    def va_out_priority(self, router, out_vc_class, invc):
        return (
            self.qos.va_out_priority(router, out_vc_class, invc),
            super().va_out_priority(router, out_vc_class, invc),
        )

    def sa_priority(self, router, invc):
        return (self.qos.sa_priority(router, invc), super().sa_priority(router, invc))

    # Lexicographic keys as masks: the best QoS band, then RAIR's class in it.
    def va_out_top(self, router, out_vc: int, mask: int) -> int:
        return super().va_out_top(router, out_vc, self.qos.va_out_top(router, out_vc, mask))

    def sa_top(self, router, mask: int) -> int:
        return super().sa_top(router, self.qos.sa_top(router, mask))

    def end_network_cycle(self, network, cycle: int) -> None:
        super().end_network_cycle(network, cycle)
        self.qos.end_network_cycle(network, cycle)

    def fast_forward_idle(self, network, start: int, stop: int) -> None:
        # RairPolicy keeps no end-of-cycle network state (DPA lives in
        # end_router_cycle, which never runs while idle); only the QoS
        # component's frame roll-over needs replaying.
        self.qos.fast_forward_idle(network, start, stop)
