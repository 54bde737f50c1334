"""Empirical saturation calibration.

Finds the latency knee of a traffic footprint by bisection: the largest
injection rate whose average packet latency stays below
``KNEE_FACTOR`` x the zero-load APL *and* whose measurement window drains.
This replaces the paper's (unstated) saturation measurement on GARNET —
substitution #5 in DESIGN.md.

CLI::

    python -m repro.experiments.calibrate [--fast]

prints a ``SATURATION_TABLE`` literal to paste into
:mod:`repro.experiments.saturation_table`.
"""

from __future__ import annotations

import argparse
from collections.abc import Callable, Sequence

from repro import build_simulation
from repro.core.regions import RegionMap
from repro.experiments.saturation_table import KNEE_FACTOR
from repro.noc.config import NocConfig
from repro.noc.topology import MeshTopology
from repro.traffic.patterns import UniformPattern
from repro.traffic.regional import RegionalAppTraffic
from repro.traffic.synthetic import SyntheticTrafficSource

__all__ = ["probe_apl", "find_saturation", "calibrate_all"]

_LOW_RATE = 0.02


def probe_apl(
    make_sources: Callable[[float, int], Sequence],
    rate: float,
    *,
    region_map: RegionMap | None = None,
    warmup: int = 500,
    measure: int = 2000,
    seed: int = 1234,
) -> tuple[float, bool]:
    """Run one probe; returns (APL, drained)."""
    sim, net = build_simulation(
        NocConfig(), region_map=region_map, scheme="rr", routing="local"
    )
    try:
        for src in make_sources(rate, seed):
            sim.add_traffic(src)
        # No explicit drain_limit: run_measurement derives it from the probe
        # window (10x(warmup+measure) + 20000), so enlarging a probe window
        # can no longer silently outgrow a hardcoded drain budget.
        res = sim.run_measurement(warmup=warmup, measure=measure)
        return net.stats.apl(window=res.window), res.drained
    finally:
        sim.close()


def find_saturation(
    make_sources: Callable[[float, int], Sequence],
    *,
    region_map: RegionMap | None = None,
    lo: float = 0.05,
    hi: float = 0.7,
    tol: float = 0.02,
    warmup: int = 500,
    measure: int = 2000,
    knee_factor: float = KNEE_FACTOR,
) -> float:
    """Bisect for the latency knee of a traffic footprint.

    ``make_sources(rate, seed)`` builds the traffic sources at a given
    per-node flit rate. The returned value is the largest probed rate that
    stayed under the knee.
    """
    base_apl, drained = probe_apl(
        make_sources, _LOW_RATE, region_map=region_map, warmup=warmup, measure=measure
    )
    if not drained:
        raise RuntimeError("baseline probe did not drain; footprint is broken")
    threshold = knee_factor * base_apl

    def under_knee(rate: float) -> bool:
        apl, ok = probe_apl(
            make_sources, rate, region_map=region_map, warmup=warmup, measure=measure
        )
        return ok and apl < threshold

    if under_knee(hi):
        return hi
    good, bad = lo, hi
    while bad - good > tol:
        mid = 0.5 * (good + bad)
        if under_knee(mid):
            good = mid
        else:
            bad = mid
    return round(good, 3)


# -- footprints matching saturation_table keys -------------------------------------


def _chip_ur(topology: MeshTopology):
    def make(rate: float, seed: int):
        return [
            SyntheticTrafficSource(
                nodes=range(topology.num_nodes),
                rate=rate,
                pattern=UniformPattern(topology),
                app_id=0,
                seed=seed,
            )
        ]

    return make, None


def _region_ur(region_map: RegionMap, app: int):
    def make(rate: float, seed: int):
        return [
            RegionalAppTraffic(
                region_map, app, rate=rate, seed=seed,
                intra_fraction=1.0, inter_fraction=0.0, mc_fraction=0.0,
            )
        ]

    return make, region_map


def _region_mix(region_map: RegionMap, app: int):
    def make(rate: float, seed: int):
        return [
            RegionalAppTraffic(
                region_map, app, rate=rate, seed=seed,
                intra_fraction=0.75, inter_fraction=0.20, mc_fraction=0.05,
            )
        ]

    return make, region_map


def calibrate_all(fast: bool = False) -> dict[str, float]:
    """Measure every footprint in the saturation table; returns the table."""
    topo = MeshTopology(8, 8)
    halves = RegionMap.halves(topo)
    quads = RegionMap.quadrants(topo)
    grid6 = RegionMap.grid(topo, 3, 2)
    footprints = {
        "ur_chip_8x8": _chip_ur(topo),
        "ur_half_4x8": _region_ur(halves, 0),
        "ur_quad_4x4": _region_ur(quads, 0),
        "ur_grid6_3x4": _region_ur(grid6, 0),
        "ur_grid6_2x4": _region_ur(grid6, 2),
        "mix_grid6_3x4": _region_mix(grid6, 0),
        "mix_grid6_2x4": _region_mix(grid6, 2),
    }
    warmup, measure = (300, 1000) if fast else (500, 2500)
    table = {}
    for key, (make, rm) in footprints.items():
        table[key] = find_saturation(
            make, region_map=rm, warmup=warmup, measure=measure,
            tol=0.04 if fast else 0.02,
        )
        print(f"  {key!r}: {table[key]},", flush=True)
    return table


def main(argv=None) -> None:
    """CLI entry point; prints a SATURATION_TABLE literal."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="coarser, quicker probes")
    args = parser.parse_args(argv)
    print("SATURATION_TABLE = {")
    calibrate_all(fast=args.fast)
    print("}")


if __name__ == "__main__":
    main()
