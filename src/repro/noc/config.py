"""Simulator configuration.

:class:`NocConfig` mirrors the paper's Table 1 defaults: a 64-node (8x8)
mesh, four atomic VCs per protocol class with 5-flit buffers, 128-bit
links (:data:`LINK_BITS`: a 16-byte short packet is one flit and a 64-byte
cache line plus head flit is five flits).

The per-VC *class* layout implements RAIR's VC regionalization (Section
IV.A): each VC within a virtual network is tagged ``GLOBAL`` or
``REGIONAL``; additionally the first VCs of each virtual network are the
Duato escape VCs (restricted to dimension-order routing), one per
dateline class of the fabric, so adaptive routing stays deadlock-free.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.noc.topology import _class_for, num_escape_classes_for
from repro.util.validate import check_positive, require

__all__ = ["VcClass", "NocConfig", "DEFAULT_VC_CLASSES", "LINK_BITS"]


class VcClass(enum.IntEnum):
    """RAIR tag carried by every virtual channel.

    ``GLOBAL``/``REGIONAL`` is the 1-bit field of Fig. 5. ``ESCAPE`` marks
    the additional Duato escape VCs, which the paper keeps *outside* the
    regional/global classification ("each message class is provided with
    additional one set of escape VCs", Section IV.D) — arbitration on them
    is priority-neutral.
    """

    GLOBAL = 0
    REGIONAL = 1
    ESCAPE = 2


#: Paper default: roughly equal split between global and regional VCs
#: (Section VI, "the number of regional VCs and global VCs are assumed to
#: be configured roughly the same").
DEFAULT_VC_CLASSES: tuple[VcClass, ...] = (
    VcClass.GLOBAL,
    VcClass.GLOBAL,
    VcClass.REGIONAL,
    VcClass.REGIONAL,
)

#: Link width in bits (paper Table 1). The simulator moves one flit per link
#: per cycle whatever the width, so no run reads it: ``describe()`` and
#: Table 1 print it.
LINK_BITS = 128


@dataclass(frozen=True)
class NocConfig:
    """Immutable description of one simulated network.

    Parameters
    ----------
    width, height:
        Fabric dimensions. The paper uses an 8x8 mesh; a ring folds the
        extents into one ``width * height``-node loop.
    topology:
        Fabric kind — one of :data:`~repro.noc.topology.TOPOLOGY_KINDS`
        (``"mesh"``, ``"torus"``, ``"ring"``). The fabric fixes
        :attr:`escape_vcs`.
    num_vnets:
        Number of virtual networks (protocol classes). Synthetic traffic
        uses 1; the PARSEC-like request/reply traffic uses 2 to avoid
        protocol deadlock (requests and replies never share VCs).
    vc_classes:
        Regional/global tag of each *data* VC within one virtual network
        (paper: 4, split evenly). Escape VCs are additional.
    vc_depth:
        Buffer depth per VC in flits (paper: 5). Must be >= the longest
        packet because VCs are atomic.
    link_latency:
        Cycles a flit spends on a link after switch traversal (paper: 1).
    credit_latency:
        Cycles for a credit to travel back upstream.
    max_packet_flits:
        Longest packet the traffic model may inject (paper: 5 — a 64-byte
        payload plus head flit on 128-bit links).
    """

    width: int = 8
    height: int = 8
    topology: str = "mesh"
    num_vnets: int = 1
    vc_classes: tuple[VcClass, ...] = DEFAULT_VC_CLASSES
    vc_depth: int = 5
    link_latency: int = 1
    credit_latency: int = 1
    max_packet_flits: int = 5

    def __post_init__(self) -> None:
        # An unknown kind and extents too small for the fabric both raise here.
        _class_for(self.topology).check_size(self.width, self.height)
        check_positive(self.num_vnets, "num_vnets")
        require(len(self.vc_classes) >= 1, "need at least one data VC per vnet")
        require(
            all(isinstance(c, VcClass) for c in self.vc_classes),
            "vc_classes entries must be VcClass values",
        )
        require(
            all(c is not VcClass.ESCAPE for c in self.vc_classes),
            "vc_classes lists data VCs only; the fabric fixes the escape VCs",
        )
        check_positive(self.vc_depth, "vc_depth")
        check_positive(self.link_latency, "link_latency")
        check_positive(self.credit_latency, "credit_latency")
        check_positive(self.max_packet_flits, "max_packet_flits")
        require(
            self.max_packet_flits <= self.vc_depth,
            f"atomic VCs require vc_depth ({self.vc_depth}) >= "
            f"max_packet_flits ({self.max_packet_flits})",
        )

    # -- derived quantities --------------------------------------------------
    @cached_property  # read per VC while routers are built
    def escape_vcs(self) -> int:
        """Duato escape VCs per virtual network: one per dateline class of
        the fabric (1 on a mesh, 2 on a torus or ring; paper Section IV.D).
        They are restricted to dimension-order routing and priority-neutral."""
        return num_escape_classes_for(self.topology)

    @property
    def num_nodes(self) -> int:
        """Total node count."""
        return self.width * self.height

    @property
    def vcs_per_vnet(self) -> int:
        """Number of VCs in each virtual network (escape + data)."""
        return self.escape_vcs + len(self.vc_classes)

    @property
    def total_vcs(self) -> int:
        """VCs per input port across all virtual networks."""
        return self.num_vnets * self.vcs_per_vnet

    def vc_vnet(self, vc: int) -> int:
        """Virtual network that global VC index ``vc`` belongs to."""
        return vc // self.vcs_per_vnet

    def vc_class(self, vc: int) -> VcClass:
        """Tag of global VC index ``vc`` (ESCAPE / GLOBAL / REGIONAL).

        Within a vnet, indices ``[0, escape_vcs)`` are escape VCs and the
        rest carry the configured data-VC classes.
        """
        idx = vc % self.vcs_per_vnet
        if idx < self.escape_vcs:
            return VcClass.ESCAPE
        return self.vc_classes[idx - self.escape_vcs]

    def is_escape_vc(self, vc: int) -> bool:
        """Whether ``vc`` is a Duato escape VC of its virtual network."""
        return vc % self.vcs_per_vnet < self.escape_vcs

    def vnet_vcs(self, vnet: int) -> range:
        """Global VC indices belonging to virtual network ``vnet``."""
        base = vnet * self.vcs_per_vnet
        return range(base, base + self.vcs_per_vnet)

    def describe(self) -> str:
        """Human-readable one-line summary (used by experiment reports)."""
        n_glob = sum(1 for c in self.vc_classes if c is VcClass.GLOBAL)
        n_reg = len(self.vc_classes) - n_glob
        if self.topology == "ring":
            fabric = f"{self.num_nodes}-node ring"
        else:
            fabric = f"{self.width}x{self.height} {self.topology}"
        return (
            f"{fabric}, {self.num_vnets} vnet(s) x "
            f"{self.vcs_per_vnet} VCs ({self.escape_vcs} escape / {n_glob} "
            f"global / {n_reg} regional), {self.vc_depth}-flit VCs, "
            f"{LINK_BITS}-bit links"
        )
