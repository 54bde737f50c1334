"""Destination samplers — the paper's synthetic traffic patterns.

A pattern is a callable ``pattern(rng, src) -> dst``. The four classic
patterns from Dally & Towles used in Section V (UR, TP, BC, HS) are
provided, plus two wrappers the regionalized scenarios need:

* :class:`UniformPattern` can be restricted to an arbitrary node subset
  (intra-region uniform random traffic),
* :class:`OutOfRegionPattern` forces a base pattern's destinations out of
  the source's region, falling back to uniform-external when the base
  pattern is deterministic and maps a node into its own region (e.g.
  transpose on the diagonal). The paper applies TP/BC/HS "to the global
  traffic component" (Fig. 15); the fallback keeps that component truly
  inter-region without biasing the rest of the pattern.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.regions import RegionMap
from repro.noc.topology import Topology
from repro.util.errors import TrafficError

__all__ = [
    "UniformPattern",
    "TransposePattern",
    "BitComplementPattern",
    "HotspotPattern",
    "OutOfRegionPattern",
    "make_pattern",
]


class UniformPattern:
    """Uniform random destination over a node set (default: whole mesh)."""

    def __init__(
        self,
        topology: Topology,
        nodes: Sequence[int] | None = None,
        exclude_src: bool = True,
    ):
        self.nodes = np.asarray(
            range(topology.num_nodes) if nodes is None else sorted(nodes), dtype=np.int64
        )
        if len(self.nodes) == 0:
            raise TrafficError("UniformPattern over an empty node set")
        if exclude_src and len(self.nodes) == 1:
            raise TrafficError("cannot exclude src from a single-node set")
        self.exclude_src = exclude_src

    def __call__(self, rng: np.random.Generator, src: int) -> int:
        while True:
            dst = int(self.nodes[rng.integers(len(self.nodes))])
            if not (self.exclude_src and dst == src):
                return dst


class TransposePattern:
    """Matrix transpose: ``(x, y) -> (y, x)``; needs a square mesh."""

    def __init__(self, topology: Topology):
        if topology.width != topology.height:
            raise TrafficError("transpose requires a square mesh")
        self.topology = topology

    def __call__(self, rng: np.random.Generator, src: int) -> int:
        x, y = self.topology.coords(src)
        return self.topology.node_at(y, x)


class BitComplementPattern:
    """Bit complement: ``(x, y) -> (W-1-x, H-1-y)``."""

    def __init__(self, topology: Topology):
        self.topology = topology

    def __call__(self, rng: np.random.Generator, src: int) -> int:
        x, y = self.topology.coords(src)
        return self.topology.node_at(self.topology.width - 1 - x, self.topology.height - 1 - y)


class HotspotPattern:
    """Hotspot: with probability ``hot_prob`` target a hotspot node,
    otherwise fall through to a background pattern (uniform by default).

    Default hotspots are the four mesh corners, matching the paper's use of
    corner nodes as the shared (memory-controller-like) resources.
    """

    def __init__(
        self,
        topology: Topology,
        hotspots: Sequence[int] | None = None,
        hot_prob: float = 0.5,
        background=None,
    ):
        if not 0.0 <= hot_prob <= 1.0:
            raise TrafficError(f"hot_prob must be in [0,1], got {hot_prob}")
        self.hotspots = np.asarray(
            topology.corner_nodes() if hotspots is None else list(hotspots), dtype=np.int64
        )
        if len(self.hotspots) == 0:
            raise TrafficError("HotspotPattern needs at least one hotspot")
        self.hot_prob = hot_prob
        self.background = background or UniformPattern(topology)

    def __call__(self, rng: np.random.Generator, src: int) -> int:
        if rng.random() < self.hot_prob:
            dst = int(self.hotspots[rng.integers(len(self.hotspots))])
            if dst != src:
                return dst
        return self.background(rng, src)


class OutOfRegionPattern:
    """Force destinations out of the source's region.

    Draws from ``base``; if the drawn destination lies in the source's own
    region (possible for deterministic patterns near the diagonal/centre),
    retries a few times and then falls back to uniform over external
    nodes, so the traffic stays genuinely inter-region.
    """

    _RETRIES = 4

    def __init__(self, base, region_map: RegionMap):
        self.base = base
        self.region_map = region_map
        topo = region_map.topology
        self._external: dict[int, np.ndarray] = {}
        for app in region_map.apps:
            ext = [n for n in range(topo.num_nodes) if region_map.node_app[n] != app]
            if not ext:
                raise TrafficError(f"app {app} covers the whole mesh; no external nodes")
            self._external[app] = np.asarray(ext, dtype=np.int64)

    def __call__(self, rng: np.random.Generator, src: int) -> int:
        app = self.region_map.node_app[src]
        for _ in range(self._RETRIES):
            dst = self.base(rng, src)
            if self.region_map.node_app[dst] != app:
                return dst
        ext = self._external[app]
        return int(ext[rng.integers(len(ext))])


_REGISTRY = {
    "ur": UniformPattern,
    "tp": TransposePattern,
    "bc": BitComplementPattern,
    "hs": HotspotPattern,
}


def make_pattern(name: str, topology: Topology, **kwargs):
    """Build a pattern by its paper abbreviation (``ur``/``tp``/``bc``/``hs``)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = sorted(_REGISTRY)
        raise TrafficError(f"unknown traffic pattern {name!r}; known: {known}") from None
    return cls(topology, **kwargs)
