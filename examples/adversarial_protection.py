#!/usr/bin/env python3
"""Server-consolidation example: shield tenant VMs from a misbehaving one.

The paper's motivating server-consolidation story (Sections II and V.G):
several virtual machines share one many-core chip, each in its own region;
one of them goes rogue — an attack or just an OS bug — and floods the
network. A region-aware interference-reduction scheme should keep the
well-behaved tenants' packet latency close to the flood-free baseline.

This example runs four PARSEC-like tenant workloads in quadrants, layers a
chip-wide flood on top, and prints each tenant's latency slowdown under
three arbitration schemes.

Run:  python examples/adversarial_protection.py  [--rate 0.4]
"""

import argparse

from repro import RegionMap, build_simulation
from repro.noc import NocConfig
from repro.noc.topology import MeshTopology
from repro.traffic import (
    PARSEC_PROFILES,
    AdversarialTrafficSource,
    ParsecWorkload,
)

TENANTS = ("blackscholes", "swaptions", "fluidanimate", "raytrace")


def run(scheme: str, flood_rate: float, seed: int = 7) -> dict[int, float]:
    """Per-tenant APL with (or without, rate=0) an adversarial flood."""
    config = NocConfig(num_vnets=2)  # separate request/reply networks
    topology = MeshTopology(config.width, config.height)
    regions = RegionMap.quadrants(topology)

    sim, net = build_simulation(config, region_map=regions, scheme=scheme, routing="local")
    sim.add_traffic(
        ParsecWorkload(regions, [PARSEC_PROFILES[n] for n in TENANTS], seed=seed)
    )
    if flood_rate > 0:
        sim.add_traffic(
            AdversarialTrafficSource(
                topology, seed=seed + 1, rate=flood_rate, region_map=regions
            )
        )
    result = sim.run_measurement(warmup=1000, measure=4000, drain_limit=80_000)
    sim.close()  # free the run now; the stats stay readable
    return net.stats.per_app_apl(window=result.window)  # adversary excluded


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=0.4,
                        help="flood rate in flits/cycle/node (paper: 0.4)")
    args = parser.parse_args()

    schemes = ("ro_rr", "stc", "rair")
    print(f"Flood rate: {args.rate} flits/cycle/node; tenants in quadrants\n")
    header = f"{'tenant':14}" + "".join(f"{s:>12}" for s in schemes)
    print(header + "   (APL slowdown vs flood-free run)")

    slowdowns = {}
    for scheme in schemes:
        clean = run(scheme, flood_rate=0.0)
        flooded = run(scheme, flood_rate=args.rate)
        slowdowns[scheme] = {
            app: flooded[app] / clean[app] for app in clean
        }

    for app, tenant in enumerate(TENANTS):
        row = f"  {tenant:12}"
        for scheme in schemes:
            row += f"{slowdowns[scheme][app]:>11.2f}x"
        print(row)

    avgs = {s: sum(v.values()) / len(v) for s, v in slowdowns.items()}
    print("\naverage: " + "  ".join(f"{s}={avgs[s]:.2f}x" for s in schemes))
    print(
        "\nRAIR identifies the flood as foreign traffic in every region and"
        " demotes it via DPA; STC only down-ranks it but batching still"
        " admits its older packets (paper Fig. 17)."
    )


if __name__ == "__main__":
    main()
