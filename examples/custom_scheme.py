#!/usr/bin/env python3
"""Extensibility walkthrough: write your own interference-reduction scheme.

Every scheme in this package — RO_RR, STC, RAIR — is an
:class:`~repro.arbitration.base.ArbitrationPolicy`: a small object that
names the favoured candidates at the router's arbitration steps. This example
builds a new one from scratch, **GlobalFirst**: a deliberately simple
region-aware policy that prioritizes inter-region (global) packets
everywhere, with no dynamic adaptation — roughly "RAIR without DPA and
without VC classes" — and shows where it wins and where full RAIR's
adaptivity matters.

Run:  python examples/custom_scheme.py
"""

from repro import RegionMap, build_simulation
from repro.arbitration.base import ArbitrationPolicy, top_class
from repro.noc import NocConfig
from repro.noc.topology import MeshTopology
from repro.traffic import RegionalAppTraffic


class GlobalFirstPolicy(ArbitrationPolicy):
    """Prioritize packets whose source and destination regions differ.

    Each stage keeps the contested candidates with the lowest key
    (``top_class``) and the router rotates among them. We key on the
    packet's ``is_global`` flag (set by the traffic layer from the region
    map): global packets first, round-robin inside each class. Unlike
    RAIR this is static — a region flooded by global traffic keeps
    serving it first, which is exactly the failure mode DPA exists to
    avoid (paper Fig. 12(b)).
    """

    @staticmethod
    def _key(invc):
        return 0 if invc.pkt.is_global else 1

    def va_out_top(self, router, out_vc, mask):
        return top_class(router.vcs, mask, self._key)

    def sa_top(self, router, mask):
        return top_class(router.vcs, mask, self._key)


def run_policy(policy_name_or_obj, regions, seed=9):
    custom = isinstance(policy_name_or_obj, ArbitrationPolicy)
    sim, net = build_simulation(
        NocConfig(), region_map=regions,
        scheme="rr" if custom else policy_name_or_obj, routing="local",
    )
    if custom:
        # Swap in a custom policy object: attach binds it to the network.
        net.policy = policy_name_or_obj
        policy_name_or_obj.attach(net)
    # Scenario (b)-style stress: the *high-load* app sends global traffic.
    sim.add_traffic(RegionalAppTraffic(regions, 0, rate=0.05, seed=seed,
                                       intra_fraction=1.0, inter_fraction=0.0,
                                       mc_fraction=0.0))
    sim.add_traffic(RegionalAppTraffic(regions, 1, rate=0.30, seed=seed + 1,
                                       intra_fraction=0.7, inter_fraction=0.3,
                                       mc_fraction=0.0))
    result = sim.run_measurement(warmup=800, measure=3000)
    sim.close()  # free the run now; the stats stay readable
    return net.stats.per_app_apl(window=result.window)


def main() -> None:
    topology = MeshTopology(8, 8)
    regions = RegionMap.halves(topology)
    print("Region layout (application id per node, row 0 at the top):")
    for y in range(topology.height):
        row = regions.node_app[y * topology.width:(y + 1) * topology.width]
        print(" ".join(str(app) for app in row))
    print("\nScenario: App0 low load intra-only; App1 HIGH load with 30% global")
    print("traffic invading App0's region — static global-first should hurt App0.\n")

    for label, policy in [
        ("RO_RR", "rr"),
        ("GlobalFirst (custom)", GlobalFirstPolicy()),
        ("RA_RAIR", "rair"),
    ]:
        apl = run_policy(policy, regions)
        print(f"{label:22} App0 APL {apl[0]:7.1f}   App1 APL {apl[1]:7.1f}")

    print(
        "\nGlobalFirst accelerates App1's invading packets *into* App0's"
        " region unconditionally; RAIR's DPA notices App0's native traffic"
        " is the less intensive flow there and protects it."
    )


if __name__ == "__main__":
    main()
