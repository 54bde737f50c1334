"""Selection functions: rank admissible output ports by congestion estimate.

Two estimators are provided:

* :func:`credit_rank` — purely local information: free downstream buffer
  slots (credits) summed over the packet's virtual network, the classic
  free-VC/credit heuristic of Baydal et al. [3] used by the paper's
  "local" adaptive routing.
* :func:`dbar_rank` — DBAR's estimator: buffer occupancy aggregated over
  the routers along the candidate dimension, *truncated at the boundary of
  the current region* (and at the destination), so congestion inside other
  regions never influences the choice. This is the interference-reduction
  mechanism of DBAR that the paper discusses around its Figure 4.

Both return a *score per port* (lower = better); :func:`by_score` orders
the admissible ports by ``(score, stable index)``.
"""

from __future__ import annotations

__all__ = ["by_score", "credit_rank", "dbar_rank"]


def by_score(ports: tuple[int, ...], scores: list[float]) -> tuple[int, ...]:
    """``ports`` ordered by ``(score, index)``, best first.

    Two ports — all a minimal route on a mesh ever offers — are one
    comparison; ``(score, index)`` is a total order, so the comparison and
    the sort agree.
    """
    if len(ports) == 2:
        return ports if scores[0] <= scores[1] else (ports[1], ports[0])
    order = sorted(range(len(ports)), key=lambda i: (scores[i], i))
    return tuple(ports[i] for i in order)


def credit_rank(network, node: int, pkt, ports: tuple[int, ...]) -> list[float]:
    """Scores = negated free credits toward each candidate port.

    More free downstream credits means less congestion, so the score is the
    negative credit count (lower score preferred).
    """
    router = network.routers[node]
    # The vnet's VCs are contiguous; the router's per-vnet table has them.
    vcs = router.vcs_local[pkt.vnet][1]
    start, stop = vcs[0], vcs[-1] + 1
    out_credits = router.out_credits
    return [-float(sum(out_credits[port][start:stop])) for port in ports]


def dbar_rank(network, node: int, pkt, ports: tuple[int, ...]) -> list[float]:
    """DBAR scores: mean quantized congestion along each dimension path.

    For candidate direction ``d``, walk routers in that direction starting
    at the neighbour and stop at whichever comes first: the destination's
    coordinate in that dimension, or the last router still in the *same
    region as the current router* (region info from
    ``network.region_of``; with no regions configured the walk only stops
    at the destination coordinate). The score is the mean of
    ``network.congestion`` — the 2-bit, periodically refreshed snapshot
    that models DBAR's wired congestion propagation — over the walked
    routers; an immediate mesh edge yields the local node's level.
    """
    topo = network.topology
    occ = network.congestion
    # region_ids is the plain-int mirror of region_of: per-hop reads below
    # then compare ints instead of boxing numpy scalars.
    region_of = network.region_ids
    here_region = region_of[node]
    dst = pkt.dst
    scores = []
    for port in ports:
        # Steps remaining to the destination along this port's direction
        # (topology-aware: modular distance on wrap fabrics).
        steps = topo.steps_to(node, dst, port)
        path = topo.path_nodes(node, port, steps)
        total = 0.0
        count = 0
        for n in path:
            total += occ[n]
            count += 1
            # Region-truncation: ignore congestion beyond the current
            # region's boundary (DBAR "discards the redundant information
            # generated by other regions").
            if region_of[n] != here_region:
                break
        scores.append(total / count if count else float(occ[node]))
    return scores
