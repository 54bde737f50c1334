"""E-T1 — Table 1: simulator configuration.

The paper's Table 1 describes the full-system configuration behind its
PARSEC traces. Our substitute stack (DESIGN.md §4) realizes the
network-visible rows directly and models the system rows through the
PARSEC-like workload's service latencies. This module renders the
side-by-side mapping so the reproduction's configuration is auditable.
"""

from __future__ import annotations

from repro.experiments.runner import FigureResult
from repro.noc.config import LINK_BITS, NocConfig
from repro.traffic.parsec import L2_SERVICE_LATENCY, MC_SERVICE_LATENCY

__all__ = ["run", "main"]


def run(config: NocConfig | None = None) -> FigureResult:
    """Render the Table 1 mapping for ``config`` (default: paper config)."""
    cfg = config or NocConfig(num_vnets=2)
    rows = [
        {
            "item": "Cores",
            "paper": "64 Sun UltraSPARC III+, 1GHz",
            "repro": f"{cfg.num_nodes} nodes ({cfg.width}x{cfg.height} mesh), "
            "synthetic request/reply cores",
        },
        {
            "item": "Private I/D L1$",
            "paper": "32KB, 2-way, LRU, 1-cycle",
            "repro": "implicit: request stream models L1 misses",
        },
        {
            "item": "Shared L2$/bank",
            "paper": "256KB, 16-way, LRU, 6-cycle",
            "repro": f"one bank/node, {L2_SERVICE_LATENCY}-cycle service",
        },
        {
            "item": "Memory latency",
            "paper": "128 cycles",
            "repro": f"{MC_SERVICE_LATENCY}-cycle service at 4 corner MCs",
        },
        {
            "item": "Block size",
            "paper": "64 Bytes",
            "repro": "5-flit replies (64B + head flit)",
        },
        {
            "item": "Virtual channels",
            "paper": "4 per protocol class, atomic, 5-flit/VC",
            "repro": f"{cfg.vcs_per_vnet} per vnet x {cfg.num_vnets} vnets, "
            f"atomic, {cfg.vc_depth}-flit/VC",
        },
        {
            "item": "Link bandwidth",
            "paper": "128 bits/cycle",
            "repro": f"{LINK_BITS} bits/cycle (1 flit/cycle/link)",
        },
    ]
    return FigureResult(
        figure="Table 1",
        title="Full-system simulator configuration (paper vs reproduction)",
        columns=["item", "paper", "repro"],
        rows=rows,
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.table1"""
    print(run().format_table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
