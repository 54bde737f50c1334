"""RAIR — the paper's primary contribution.

Three cooperating mechanisms (paper Section IV), all expressed through the
:class:`~repro.core.rair.RairPolicy` arbitration policy plus the
:class:`~repro.core.regions.RegionMap` that tags routers with their
application:

* **VC regionalization** (:mod:`repro.core.vc_regionalization`) — VCs are
  tagged regional/global; global VCs always prefer foreign traffic,
  regional VCs follow the DPA priority.
* **Multi-stage prioritization** (:mod:`repro.core.msp`) — the priority is
  enforced at VA_out, SA_in and SA_out (never VA_in, where flows do not
  contend).
* **Dynamic priority adaptation** (:mod:`repro.core.dpa`) — per-router
  occupied-VC counters drive a hysteresis state machine deciding whether
  native or foreign traffic currently has priority.
"""

from repro.core.dpa import DpaConfig, hysteresis_update
from repro.core.msp import Stage
from repro.core.rair import RairPolicy
from repro.core.regions import RegionMap
from repro.core.vc_regionalization import vc_class_counts

__all__ = [
    "RairPolicy",
    "RegionMap",
    "DpaConfig",
    "hysteresis_update",
    "Stage",
    "vc_class_counts",
]
