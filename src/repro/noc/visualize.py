"""ASCII visualization of networks, regions and congestion.

Matplotlib-free, terminal-friendly renderers used by the examples and the
experiment CLIs to make runs inspectable:

* :func:`render_regions` — the region map as a grid of application ids
  (the textual version of the paper's Figs. 3/8/11/13/16 layouts),
* :func:`render_occupancy` — a per-router buffer-occupancy heat grid,
* :func:`render_link_utilization` — flits/cycle per mesh link,
* :func:`latency_histogram` — a horizontal ASCII latency histogram.
"""

from __future__ import annotations

import numpy as np

from repro.core.regions import RegionMap
from repro.noc.topology import EAST, RING_CCW, RING_CW, SOUTH, Topology

__all__ = [
    "render_regions",
    "render_occupancy",
    "render_link_utilization",
    "latency_histogram",
]

_SHADES = " .:-=+*#%@"


def _shade(value: float, max_value: float) -> str:
    if max_value <= 0:
        return _SHADES[0]
    idx = int(round((len(_SHADES) - 1) * min(1.0, value / max_value)))
    return _SHADES[idx]


def render_regions(region_map: RegionMap) -> str:
    """Region map as a text grid; unassigned nodes render as '.'."""
    topo = region_map.topology
    width = max(2, max((len(str(a)) for a in region_map.apps), default=1) + 1)
    lines = []
    for y in range(topo.height):
        row = []
        for x in range(topo.width):
            app = region_map.app_of(topo.node_at(x, y))
            row.append(("." if app < 0 else str(app)).rjust(width))
        lines.append("".join(row))
    return "\n".join(lines)


def render_occupancy(network) -> str:
    """Per-router buffered-flit heat grid (darker = fuller buffers)."""
    topo = network.topology
    occ = network.occupancy
    cap = max(1, int(max(occ)))
    lines = [f"buffer occupancy (max {cap} flits/router):"]
    for y in range(topo.height):
        row = []
        for x in range(topo.width):
            row.append(_shade(float(occ[topo.node_at(x, y)]), cap) * 2)
        lines.append("".join(row))
    return "\n".join(lines)


def render_link_utilization(network, cycles: int) -> str:
    """Links annotated with flits/cycle.

    Grid fabrics show the east and south links (wrap links of a torus are
    counted but not drawn); a ring lists each node's cw/ccw rates.
    ``cycles`` is the elapsed simulated time the counters cover.
    """
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    topo: Topology = network.topology
    lf = network.link_flit_counts()
    lines = [f"link utilization over {cycles} cycles (flits/cycle):"]
    if topo.kind == "ring":
        for node in range(topo.num_nodes):
            cw = lf[node][RING_CW] / cycles
            ccw = lf[node][RING_CCW] / cycles
            lines.append(f"{node:3d}: cw={cw:.2f} ccw={ccw:.2f}")
        return "\n".join(lines)
    for y in range(topo.height):
        east_row = []
        south_row = []
        for x in range(topo.width):
            node = topo.node_at(x, y)
            east_row.append("o")
            if x < topo.width - 1:
                east_row.append(f"-{lf[node][EAST] / cycles:.2f}-")
            if y < topo.height - 1:
                south_row.append(f"{lf[node][SOUTH] / cycles:.2f}".ljust(7))
        lines.append("".join(east_row))
        if south_row:
            lines.append("".join(s for s in south_row))
    return "\n".join(lines)


def latency_histogram(latencies, bins: int = 12, width: int = 40) -> str:
    """Horizontal ASCII histogram of packet latencies."""
    samples = np.asarray(latencies, dtype=float)
    if samples.size == 0:
        return "(no samples)"
    counts, edges = np.histogram(samples, bins=bins)
    peak = max(1, int(counts.max()))
    lines = []
    for i, count in enumerate(counts):
        bar = "#" * int(round(width * count / peak))
        lines.append(f"{edges[i]:8.1f} - {edges[i + 1]:8.1f} | {bar} {count}")
    lines.append(
        f"n={samples.size} mean={samples.mean():.1f} p95={np.percentile(samples, 95):.1f}"
    )
    return "\n".join(lines)
