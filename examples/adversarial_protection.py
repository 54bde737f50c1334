#!/usr/bin/env python3
"""Server-consolidation example: shield tenant VMs from a misbehaving one.

The paper's motivating server-consolidation story (Sections II and V.G):
several virtual machines share one many-core chip, each in its own region;
one of them goes rogue — an attack or just an OS bug — and floods the
network. A region-aware interference-reduction scheme should keep the
well-behaved tenants' packet latency close to the flood-free baseline.

This example runs Fig. 16/17's scenario (``parsec_quadrants``): four
PARSEC-like tenant workloads in quadrants, with and without the chip-wide
flood, and prints each tenant's latency slowdown under three schemes. The
flood is the paper's 0.4 flits/cycle/node scaled to the same fraction of
our calibrated saturation load (``scenarios.ADVERSARIAL_PRESSURE``).

Run:  python examples/adversarial_protection.py  [--effort smoke|fast|medium]
"""

import argparse

from repro.arbitration import StcPolicy
from repro.experiments.runner import SCHEMES, Effort, run_scenario
from repro.experiments.scenarios import PARSEC_APP_ORDER, parsec_quadrants

SHOWN = ("RO_RR", "RO_Rank", "RA_RAIR")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--effort", default="fast", choices=["smoke", "fast", "medium"])
    args = parser.parse_args()
    effort = Effort[args.effort.upper()]

    clean, flooded = parsec_quadrants(), parsec_quadrants(adversarial=True)
    rate = flooded.spec.kwargs["adversarial_rate"]
    print(f"Flood rate: {rate:.3f} flits/cycle/node; tenants in quadrants\n")
    header = f"{'tenant':14}" + "".join(f"{key:>12}" for key in SHOWN)
    print(header + "   (APL slowdown vs flood-free run)")

    slowdowns = {}
    for key in SHOWN:
        base = run_scenario(SCHEMES[key], clean, effort).per_app_apl
        hit = run_scenario(SCHEMES[key], flooded, effort).per_app_apl
        slowdowns[key] = {app: hit[app] / base[app] for app in base}  # tenants only

    for app, tenant in enumerate(PARSEC_APP_ORDER):
        row = f"  {tenant:12}"
        for key in SHOWN:
            row += f"{slowdowns[key][app]:>11.2f}x"
        print(row)

    avgs = {key: sum(v.values()) / len(v) for key, v in slowdowns.items()}
    print("\naverage: " + "  ".join(f"{key}={avgs[key]:.2f}x" for key in SHOWN))
    best, worst = min(avgs, key=avgs.get), max(avgs, key=avgs.get)
    print(
        f"\n{best} keeps the tenants closest to their flood-free latency"
        f" ({avgs[best]:.2f}x); {worst} shields them least ({avgs[worst]:.2f}x)."
        " The paper's order is RO_RR > RO_Rank > RA_RAIR (Fig. 17)."
    )
    first_rank = StcPolicy().rank_interval  # after every warm-up offered above
    unranked = min(first_rank, effort.warmup + effort.measure) - effort.warmup
    print(
        f"note: RO_Rank ranks first at cycle {first_rank}, after this"
        f" {effort.warmup}-cycle warm-up: {unranked} of its {effort.measure}"
        " measured cycles ran unranked."
    )


if __name__ == "__main__":
    main()
