#!/usr/bin/env python3
"""Trace workflow: capture once, replay everywhere.

The paper's methodology separates workload generation (full-system traces)
from network simulation (GARNET). This package supports the same split:

1. capture a regionalized workload into a :class:`~repro.traffic.Trace`,
2. save/load it (`.npz`),
3. replay the *identical* offered traffic under several schemes — the
   cleanest possible A/B comparison (zero workload noise between runs).

Run:  python examples/trace_workflow.py
"""

import tempfile
from pathlib import Path

from repro import RegionMap, build_simulation
from repro.noc import NocConfig
from repro.noc.topology import MeshTopology
from repro.traffic import RegionalAppTraffic, Trace, TraceTrafficSource, capture_trace
from repro.util.rng import spawn_rngs

CYCLES = 3000


def build_workload(regions: RegionMap, seed: int = 33) -> list:
    rngs = spawn_rngs(seed, 2)
    return [
        RegionalAppTraffic(regions, 0, rate=0.04, seed=rngs[0],
                           intra_fraction=0.5, inter_fraction=0.5, mc_fraction=0.0),
        RegionalAppTraffic(regions, 1, rate=0.28, seed=rngs[1],
                           intra_fraction=1.0, inter_fraction=0.0, mc_fraction=0.0),
    ]


def replay(trace: Trace, regions: RegionMap, scheme: str) -> dict[int, float]:
    config = NocConfig()
    sim, net = build_simulation(config, region_map=regions, scheme=scheme, routing="local")
    sim.add_traffic(TraceTrafficSource(trace))
    sim.run(CYCLES)
    assert sim.run_until_drained(60_000), "trace replay failed to drain"
    sim.close()  # free the run now; the stats stay readable
    window = (500, CYCLES)  # skip the cold start
    return net.stats.per_app_apl(window=window)


def main() -> None:
    topology = MeshTopology(8, 8)
    regions = RegionMap.halves(topology)

    print(f"1. capturing {CYCLES} cycles of the two-app workload...")
    trace = capture_trace(build_workload(regions), cycles=CYCLES)
    print(f"   {len(trace)} packets, {trace.total_flits()} flits")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "two_app.npz"
        trace.save(path)
        loaded = Trace.load(path)
        print(f"2. saved + reloaded: {path.name} ({path.stat().st_size} bytes)")

        print("3. replaying the identical traffic under three schemes:\n")
        print(f"{'scheme':12}{'App0 APL':>10}{'App1 APL':>10}")
        for scheme in ("rr", "stc", "rair"):
            apl = replay(loaded, regions, scheme)
            print(f"  {scheme:10}{apl[0]:10.1f}{apl[1]:10.1f}")

    print(
        "\nEvery scheme saw byte-identical offered traffic — differences"
        "\nare pure arbitration effects, no workload noise."
    )


if __name__ == "__main__":
    main()
