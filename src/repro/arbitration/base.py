"""Arbitration-policy interface and the rotating-priority primitives.

Every arbitration step is a rotating-priority pick: the candidates are
first reduced to their top priority class, and the class is broken
round-robin by rotating a pointer over a stable candidate index. Pure
round-robin is the degenerate case with no priority class. Rotating
tie-breaks inside each class make all policies here starvation-free
*within* a class; cross-class starvation freedom is each policy's own
responsibility (STC uses batching, RAIR's DPA is self-throttling — paper
Section IV.D).

The router's three contested steps (VA_out, SA_in, SA_out) run the pick on
bitmasks over its flat VC keys: a policy states its priority as the top
class of a candidate mask (:attr:`ArbitrationPolicy.va_out_top` /
:attr:`~ArbitrationPolicy.sa_top`, ``None`` for a round-robin stage) and
:func:`rotating_bit` rotates from the pointer; VA_in's request choice
(:meth:`ArbitrationPolicy.choose_vc`) rotates the same way over the free
VCs of one output port. The property tests hold the mask form to each
scheme's published rule written over candidate lists.
"""

from __future__ import annotations

__all__ = ["ArbitrationPolicy", "rotating_bit", "top_class"]


def rotating_bit(mask: int, ptr: int) -> int:
    """The set bit of non-zero ``mask`` closest at or after position ``ptr``.

    Wraps to the lowest set bit when nothing is set from ``ptr`` up. The
    winner's slot is ``bit.bit_length() - 1``, so the advanced pointer
    (one past it) is ``bit.bit_length() % modulo``.
    """
    high = mask >> ptr
    return (high & -high) << ptr if high else mask & -mask


def top_class(vcs, mask: int, key_of) -> int:
    """Bits of ``mask`` whose VC (``vcs[bit position]``) has the lowest key.

    The helper for a policy whose priority is a key per input VC (lower
    wins), such as STC's ``(batch, rank)``.
    """
    best = None
    top = 0
    while mask:
        low = mask & -mask
        mask ^= low
        key = key_of(vcs[low.bit_length() - 1])
        if best is None or key < best:
            best, top = key, low
        elif key == best:
            top |= low
    return top


class ArbitrationPolicy:
    """Base policy: pure round-robin everywhere (the paper's RO_RR).

    A subclass states its priority at each contested stage by defining
    the stage's top-class method; the mechanics of each arbitration step
    (candidate collection, pointer bookkeeping) stay in the router.

    * ``va_out_top(router, out_vc, mask)`` — the requesters in ``mask``
      that VA_out favours for output VC ``out_vc`` (an index into the
      port's VCs; ``router.vc_class_of[out_vc]`` is its
      :class:`~repro.noc.config.VcClass`).
    * ``sa_top(router, mask)`` — the candidates in ``mask`` that both
      switch-allocation steps favour.

    ``mask`` is a non-empty set of input VCs as bits over the router's
    flat VC keys (``router.vcs[bit position]``); the answer is the
    non-empty sub-mask sharing the best priority, among which the router
    rotates. ``None`` (the default) makes the stage round-robin: the
    router skips its class reduction altogether.
    """

    va_out_top = None
    sa_top = None

    def __init__(self) -> None:
        self.network = None

    def attach(self, network) -> None:
        """Bind to a network before simulation starts."""
        self.network = network

    # -- VA_in: which free VC of the chosen port does an input VC request? ------
    def choose_vc(self, router, invc, port: int, mask: int) -> int:
        """Pick one output VC of ``port`` from ``mask``; returns its index.

        ``mask`` is the non-empty set of free VCs ``invc`` may request on
        its best-ranked port, as bits over the VC index. The default
        rotates across them so consecutive packets spread over VCs; the
        pointer ``router.va_req_ptr[port]`` advances only when there was a
        choice to rotate over.
        """
        if mask & (mask - 1):
            mask = rotating_bit(mask, router.va_req_ptr[port])
            router.va_req_ptr[port] = mask.bit_length() % router.total_vcs
        return mask.bit_length() - 1

    # -- per-cycle hooks -------------------------------------------------------
    def end_router_cycle(self, router, cycle: int) -> None:
        """Called once per active router per cycle after SA (DPA lives here)."""

    def end_network_cycle(self, network, cycle: int) -> None:
        """Called once per cycle after all routers (STC ranking lives here)."""

    def fast_forward_idle(self, network, start: int, stop: int) -> None:
        """Replay the net effect of ``end_network_cycle`` over idle cycles.

        The simulator's fast-forward path skips cycles ``[start, stop)``
        during which the network is provably idle (no flits buffered or in
        flight, no pending credits). A policy whose ``end_network_cycle``
        is a no-op inherits this no-op and is skippable for free. A policy
        that *does* keep per-cycle state must override this to apply, in
        O(1) with respect to the gap length, exactly the state changes its
        ``end_network_cycle`` would have made on each skipped cycle — the
        simulator only calls it when no flit moved in the gap, so counters
        derived from traffic see zero deltas. Policies that cannot express
        their idle-gap effect this way must not override it AND must
        override ``end_network_cycle``; the simulator then detects the
        combination and falls back to naive per-cycle ticking.
        """
