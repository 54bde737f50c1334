#!/usr/bin/env python3
"""DPA tuning walkthrough: hysteresis width and static-priority pitfalls.

Demonstrates the paper's Section IV.C / Fig. 12 argument hands-on, by
printing the tables of the two experiments that make it:

1. Fig. 12 (``fig12_dpa``): in the two contrasting four-application
   scenarios (Fig. 11 a/b) each static priority (NativeH / ForeignH) wins
   exactly one, and DPA tracks the better one in both;
2. the hysteresis ablation (``ablation_hysteresis``): a delta sweep over
   the six-application scenario, to locate the paper's ~0.2 sweet spot.
   Each row is RA_RAIR whose scheme carries its own ``DpaConfig(delta=...)``.

Run:  python examples/dpa_tuning.py  [--effort smoke|fast|medium]
"""

import argparse

from repro.experiments import ablation_hysteresis, fig12_dpa
from repro.experiments.runner import Effort


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--effort", default="fast", choices=["smoke", "fast", "medium"])
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    effort = Effort[args.effort.upper()]

    print("1) Static priorities each win only one scenario:\n")
    print(fig12_dpa.run(effort=effort, seed=args.seed).format_table())
    print(
        "\n   Scenario (a) floods region 3 with low-intensity foreign traffic"
        " -> ForeignH wins; (b) floods the low-load regions with high-"
        "intensity foreign traffic -> NativeH wins. DPA adapts to both.\n"
    )

    print("2) Hysteresis width sweep (six-app scenario):\n")
    print(ablation_hysteresis.run(effort=effort, seed=args.seed).format_table())
    print(
        "\n   The paper reports deltas of 0.1-0.3 working well with ~0.2"
        " best; too small reacts to transient VC flips, too large reacts"
        " too late to real load shifts."
    )


if __name__ == "__main__":
    main()
