#!/usr/bin/env python3
"""Latency-vs-load curves: the simulator substrate's signature plot.

Sweeps injection rate for uniform-random traffic on the 8x8 mesh under
three routing algorithms and renders the classic saturation curves as an
ASCII chart, annotated with the analytic zero-load latency
(:mod:`repro.noc.timing`) and the calibrated knee from
:mod:`repro.experiments.saturation_table`. This is the experiment behind
every "% of saturation load" number in the reproduction.

Run:  python examples/saturation_curves.py  [--points 6]   (at least 2)
"""

import argparse

from repro import build_simulation
from repro.experiments.saturation_table import saturation_load
from repro.noc import NocConfig
from repro.noc.timing import mean_ur_hops, zero_load_latency
from repro.traffic import BimodalLengths, SyntheticTrafficSource, UniformPattern

ROUTINGS = ("xy", "local", "dbar")


def measure(routing: str, rate: float, seed: int = 3) -> float:
    config = NocConfig()
    sim, net = build_simulation(config, scheme="rr", routing=routing)
    sim.add_traffic(
        SyntheticTrafficSource(
            nodes=range(config.num_nodes), rate=rate,
            pattern=UniformPattern(net.topology), app_id=0, seed=seed,
            lengths=BimodalLengths(),
        )
    )
    result = sim.run_measurement(warmup=500, measure=1500, drain_limit=50_000)
    sim.close()  # free the run now; the stats stay readable
    return net.stats.apl(window=result.window)


def ascii_chart(curves: dict[str, list[tuple[float, float]]], height: int = 14) -> str:
    """Tiny multi-series scatter chart (rate on x, APL on y, log-ish cap)."""
    points = [p for series in curves.values() for p in series]
    max_apl = max(apl for _, apl in points)
    max_rate = max(rate for rate, _ in points)
    cols = 60
    grid = [[" "] * (cols + 1) for _ in range(height + 1)]
    markers = {}
    for marker, (name, series) in zip("x+o", curves.items()):
        markers[name] = marker
        for rate, apl in series:
            x = int(round(cols * rate / max_rate))
            y = height - int(round(height * min(apl, max_apl) / max_apl))
            grid[y][x] = marker
    lines = [f"{max_apl:7.0f} |" + "".join(row) for row in grid[:1]]
    for row in grid[1:]:
        lines.append("        |" + "".join(row))
    lines.append("        +" + "-" * cols)
    lines.append(f"         0{'flits/node/cycle'.center(cols - 10)}{max_rate:.2f}")
    legend = "  ".join(f"{markers[name]} = {name}" for name in curves)
    lines.append("        " + legend)
    return "\n".join(lines)


def two_or_more(text: str) -> int:
    """The ``--points`` count: a curve needs both of its end loads."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 points, got {value}")
    return value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=two_or_more, default=6, help="loads per curve (>= 2)")
    args = parser.parse_args()

    knee = saturation_load("ur_chip_8x8")
    zero = zero_load_latency(round(mean_ur_hops(8, 8)), 3)
    rates = [knee * f for f in
             [0.2 + 0.9 * i / (args.points - 1) for i in range(args.points)]]

    print(f"UR on 8x8; analytic zero-load APL ~{zero}, calibrated knee {knee}\n")
    curves = {}
    for routing in ROUTINGS:
        series = []
        for rate in rates:
            apl = measure(routing, rate)
            series.append((rate, apl))
            print(f"  {routing:6} rate {rate:.3f}  APL {apl:7.1f}")
        curves[routing] = series
    print()
    print(ascii_chart(curves))
    print(
        "\nThe knee (calibrated at 3x the zero-load APL) is where every"
        "\nscenario's '% of saturation' loads are anchored."
    )


if __name__ == "__main__":
    main()
