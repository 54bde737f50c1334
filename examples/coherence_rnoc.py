#!/usr/bin/env python3
"""RNoC formation: how home-node placement regionalizes coherence traffic.

The paper's Section II.A Example 3: virtual hierarchies (Marty & Hill)
choose cache-line home nodes inside each VM's region, so most coherence
transactions stay local — the chip *becomes* a regionalized NoC without
anyone touching the network. This example makes that formation visible:

1. run a directory-coherence workload with **static** (chip-interleaved)
   homes — the conventional-NoC case,
2. rerun with **dynamic** (region-interleaved) homes,
3. compare the intra-/inter-region traffic split (RB-3), transaction
   latency, and finally show RAIR exploiting the regionalized pattern.

Run:  python examples/coherence_rnoc.py
"""

from repro import RegionMap, build_simulation
from repro.noc import NocConfig
from repro.noc.topology import MeshTopology
from repro.traffic.coherence import CoherenceConfig, CoherenceWorkload


def run(home_policy: str, scheme: str = "rr", seed: int = 17):
    config = NocConfig(num_vnets=3)  # request / forward / response classes
    topology = MeshTopology(config.width, config.height)
    regions = RegionMap.quadrants(topology)
    sim, net = build_simulation(config, region_map=regions, scheme=scheme, routing="local")
    workload = CoherenceWorkload(
        regions,
        CoherenceConfig(req_rate=0.03, remote_share=0.10, home_policy=home_policy),
        seed=seed,
    )
    sim.add_traffic(workload)
    result = sim.run_measurement(warmup=1000, measure=4000)
    sim.close()  # free the run now; the stats stay readable
    report = workload.regionalization_report()
    report["apl"] = net.stats.apl(window=result.window)
    return report


def main() -> None:
    print("Directory coherence on 4 VMs in quadrants (paper Example 3)\n")
    print(f"{'home policy':28}{'intra %':>9}{'inter %':>9}{'APL':>8}{'txn cycles':>12}")
    rows = {}
    for policy in ("static", "dynamic"):
        rows[policy] = run(policy)
        r = rows[policy]
        print(
            f"  {policy + ' homes':26}{r['intra_fraction']:>8.1%}"
            f"{r['inter_fraction']:>9.1%}{r['apl']:>8.1f}"
            f"{r['avg_transaction_cycles']:>12.1f}"
        )

    print(
        "\nDynamic homes convert most protocol traffic to intra-region (the"
        "\npaper's RB-3 behaviour) and cut transaction latency — the NoC is"
        "\nnow an RNoC. Region-aware arbitration can exploit that:\n"
    )
    rair = run("dynamic", scheme="rair")
    base = rows["dynamic"]
    print(
        f"  dynamic homes + RA_RAIR     APL {rair['apl']:.1f} "
        f"(vs {base['apl']:.1f} under RO_RR)"
    )


if __name__ == "__main__":
    main()
