"""VC regionalization — paper Section IV.A.

Virtual channels carry a 1-bit class tag: **global** or **regional**
(:class:`repro.noc.config.VcClass`, layout in ``NocConfig.vc_classes``).
Crucially the classes are *priority* classes, not partitions: any packet
may occupy any VC, so no buffer capacity is wasted when one traffic type
is absent — one of the three advantages the paper claims for the
mechanism. The class only changes who wins the output-VC arbitration:

* a **global** output VC always prefers *foreign* requesters over native
  ones (foreign traffic is inter-region traffic mid-flight; Section II.C
  argues it is the more latency-critical class),
* a **regional** output VC prefers whichever side the router's DPA state
  currently favours.

Ties inside a class fall back to round-robin, which also realizes the
paper's "round-robin within the foreign traffic" rule when several
applications' global packets meet in one region.

:meth:`repro.core.rair.RairPolicy.va_out_top` applies both rules to the
router's candidate masks; this module holds the VA_in class preference and
the class counts.
"""

from __future__ import annotations

from repro.noc.config import NocConfig, VcClass

__all__ = ["vc_class_counts", "preferred_class"]


def preferred_class(is_native: bool) -> VcClass:
    """VC class a packet should request first in VA_in.

    Foreign (inter-region) traffic heads for global VCs where it always
    has priority; native traffic heads for regional VCs. This is a
    preference, not a restriction — when the preferred class has no free
    VC the packet requests the other class.
    """
    return VcClass.REGIONAL if is_native else VcClass.GLOBAL


def vc_class_counts(config: NocConfig) -> tuple[int, int]:
    """``(num_global, num_regional)`` VCs per virtual network."""
    n_glob = sum(1 for c in config.vc_classes if c is VcClass.GLOBAL)
    return n_glob, len(config.vc_classes) - n_glob
