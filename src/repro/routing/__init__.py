"""Routing algorithms for the NoC fabrics.

All evaluated schemes run one of three routing algorithms, each of which
works on any :class:`~repro.noc.topology.Topology` (mesh, torus, ring):

* :class:`~repro.routing.xy.XYRouting` — deterministic dimension-order
  routing (the deadlock-free escape function),
* :class:`~repro.routing.duato.DuatoAdaptiveRouting` — minimal fully
  adaptive routing made deadlock-free by Duato's theory (escape VCs per
  virtual network restricted to the topology's dimension-order port, with
  dateline classes on wrap fabrics), with a locally informed selection
  function (free downstream credits),
* :class:`~repro.routing.dbar.DbarRouting` — the same adaptive skeleton
  with DBAR's region-truncated path-congestion selection function
  (Ma et al., ISCA 2011), the routing half of the paper's RA_DBAR
  comparison point.

The turn-model algorithms (:class:`~repro.routing.turn_model.WestFirstRouting`,
:class:`~repro.routing.turn_model.OddEvenRouting`) are mesh-only — their
turn relations are proved acyclic on a mesh and reject wrap fabrics at
attach time.
"""

from repro.routing.base import RoutingAlgorithm
from repro.routing.dbar import DbarRouting
from repro.routing.duato import DuatoAdaptiveRouting
from repro.routing.selection import credit_rank, dbar_rank
from repro.routing.turn_model import OddEvenRouting, WestFirstRouting
from repro.routing.xy import XYRouting

__all__ = [
    "RoutingAlgorithm",
    "XYRouting",
    "DuatoAdaptiveRouting",
    "DbarRouting",
    "WestFirstRouting",
    "OddEvenRouting",
    "credit_rank",
    "dbar_rank",
    "make_routing",
]

_REGISTRY = {
    "xy": XYRouting,
    "local": DuatoAdaptiveRouting,
    "dbar": DbarRouting,
    "west_first": WestFirstRouting,
    "odd_even": OddEvenRouting,
}


def make_routing(name: str) -> RoutingAlgorithm:
    """Construct a routing algorithm by its one name (the keys of ``_REGISTRY``)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown routing algorithm {name!r}; known: {sorted(_REGISTRY)}") from None
    return cls()
