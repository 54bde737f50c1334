"""Cycle-accurate network-on-chip simulator substrate.

This subpackage is the from-scratch replacement for the GARNET simulator
used in the paper. It models a fabric (2-D mesh, torus, or bidirectional
ring — see :mod:`repro.noc.topology`) of canonical virtual-channel (VC)
wormhole routers with:

* credit-based flow control between routers,
* atomic VCs (one packet at a time per VC, as in the paper's Table 1),
* the canonical pipelined router — routing computation (RC), two-step VC
  allocation (VA_in / VA_out), two-step switch allocation (SA_in / SA_out),
  switch traversal (ST) and link traversal (LT),
* pluggable routing algorithms (:mod:`repro.routing`) and arbitration
  policies (:mod:`repro.arbitration`, :mod:`repro.core`), so every scheme
  evaluated in the paper is a configuration of the same simulator rather
  than a fork of it.

The entry points most users need are :class:`repro.noc.config.NocConfig`,
:class:`repro.noc.network.Network` and :class:`repro.noc.sim.Simulator`.
"""

from repro.noc.config import NocConfig, VcClass
from repro.noc.flit import MessageClass, Packet
from repro.noc.network import Network
from repro.noc.sim import Simulator
from repro.noc.stats import NetworkStats
from repro.noc.timing import mean_ur_hops, zero_load_latency
from repro.noc.trace import KernelTrace, RecordingTrace
from repro.noc.topology import (
    EAST,
    LOCAL,
    NORTH,
    PORT_NAMES,
    SOUTH,
    TOPOLOGY_KINDS,
    WEST,
    MeshTopology,
    RingTopology,
    Topology,
    TorusTopology,
    make_topology,
)

__all__ = [
    "NocConfig",
    "VcClass",
    "Packet",
    "MessageClass",
    "Network",
    "Simulator",
    "NetworkStats",
    "KernelTrace",
    "RecordingTrace",
    "zero_load_latency",
    "mean_ur_hops",
    "Topology",
    "MeshTopology",
    "TorusTopology",
    "RingTopology",
    "TOPOLOGY_KINDS",
    "make_topology",
    "LOCAL",
    "NORTH",
    "EAST",
    "SOUTH",
    "WEST",
    "PORT_NAMES",
]
