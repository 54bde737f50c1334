"""Multi-stage prioritization (MSP) — paper Section IV.B.

The canonical router has four arbitration steps; MSP applies the
region-aware priority to exactly three of them:

========  ==========================================  =====================
Step      Contention                                  MSP action
========  ==========================================  =====================
VA_in     none — each input VC picks independently    untouched (no loss)
VA_out    input VCs competing for one output VC       VC-regionalization
                                                      priority (per class)
SA_in     VCs of one input port competing for the     DPA priority
          port's switch input
SA_out    input ports competing for one output port   DPA priority
========  ==========================================  =====================

The same DPA priority value is used at VA_out/SA_in/SA_out within a cycle
(consistency requirement of Section IV.B), and prioritization never idles
a resource that has any requester, so MSP costs no throughput relative to
round-robin.

:class:`Stage` selects where the priority is enforced; the paper's
Fig. 9 ablation compares ``VA`` (RAIR_VA) against ``VA | SA``
(RAIR_VA+SA, the full mechanism).
"""

from __future__ import annotations

import enum

__all__ = ["Stage"]


class Stage(enum.Flag):
    """Arbitration stages where MSP enforces region-aware priority."""

    NONE = 0
    VA = enum.auto()
    SA = enum.auto()
    ALL = VA | SA
