"""Scenario definitions — the workload side of each paper experiment.

A :class:`Scenario` bundles the network config, the region map, and a
seeded traffic factory. The builders below encode the paper's setup
figures:

* :func:`two_app_msp` — Fig. 8: App0 on the left half at 10% of its
  saturation load with a swept inter-region fraction ``p``; App1 on the
  right half at 90% saturation, all intra-region.
* :func:`four_app_dpa` — Fig. 11(a)/(b): quadrants, three low-load
  applications and one high-load application, with the 30% inter-region
  component on either side.
* :func:`six_app` — Fig. 13: six regions (3x2 grid), mixed loads
  (10-30% vs 90% of saturation), per-app traffic 75% intra UR / 20% inter
  (configurable pattern) / 5% corner-MC.
* :func:`parsec_quadrants` — Fig. 16: four PARSEC-like applications in
  quadrants, optionally with the Fig. 17 adversarial flood.

All rates are percentages of the calibrated saturation loads
(:mod:`repro.experiments.saturation_table`).
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.regions import RegionMap
from repro.experiments.cache import is_repro_module
from repro.experiments.saturation_table import saturation_load
from repro.noc.config import NocConfig
from repro.noc.topology import make_topology
from repro.traffic.adversarial import AdversarialTrafficSource
from repro.traffic.parsec import PARSEC_PROFILES, ParsecWorkload
from repro.traffic.patterns import UniformPattern, make_pattern
from repro.traffic.regional import RegionalAppTraffic
from repro.util.errors import ConfigError
from repro.util.rng import spawn_rngs

__all__ = [
    "Scenario",
    "ScenarioSpec",
    "SCENARIO_BUILDERS",
    "two_app_msp",
    "four_app_dpa",
    "six_app",
    "parsec_quadrants",
    "SIX_APP_LOADS",
    "PARSEC_APP_ORDER",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """Picklable recipe for rebuilding a :class:`Scenario` in a worker.

    A :class:`Scenario` carries closures (its ``traffic_factory``) and so
    cannot cross a process boundary; the spec records the *builder name*
    plus its resolved keyword arguments instead. Builders are
    deterministic, so ``spec.build()`` in any process yields a scenario
    whose simulations are bit-identical to the original's. The spec is
    also the scenario half of the result-cache key
    (:mod:`repro.experiments.cache`).
    """

    builder: str
    kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # A spec arrives from the wire as readily as from code, so the
        # builder is checked on construction, before anything is imported.
        module, dotted, _ = self.builder.partition(":")
        if self.builder not in SCENARIO_BUILDERS and not (
            dotted and is_repro_module(module)
        ):
            raise ConfigError(
                f"unknown scenario builder {self.builder!r}; known: "
                f"{sorted(SCENARIO_BUILDERS)} or a dotted 'repro.module:function'"
            )

    def build(self) -> "Scenario":
        """Reconstruct the scenario via the builder registry.

        ``builder`` is either a key of :data:`SCENARIO_BUILDERS` or a
        dotted reference ``"repro.module:function"`` inside the ``repro``
        package. Dotted references are imported on demand, so builders
        living outside this module (e.g. the fault-injection scenarios of
        :mod:`repro.experiments.chaos`) resolve in worker processes under
        any multiprocessing start method, without a registration step.
        """
        if self.builder in SCENARIO_BUILDERS:
            return SCENARIO_BUILDERS[self.builder](**self.kwargs)
        mod_name, _, fn_name = self.builder.partition(":")
        return getattr(importlib.import_module(mod_name), fn_name)(**self.kwargs)


@dataclass
class Scenario:
    """Workload + placement for one experiment."""

    name: str
    config: NocConfig
    region_map: RegionMap | None
    traffic_factory: Callable[[int], list]
    #: recipe to rebuild this scenario in another process; also its cell's
    #: scenario identity (cache key, obs file stem)
    spec: ScenarioSpec


# -- Fig. 8 / 9 / 10: two applications, swept inter-region fraction ------------------


def two_app_msp(p_inter: float, config: NocConfig | None = None) -> Scenario:
    """Fig. 8 layout: App0 low-load with fraction ``p_inter`` inter-region,
    App1 high-load fully intra-region on the other half."""
    config = config or NocConfig()
    topo = make_topology(config)
    rm = RegionMap.halves(topo)
    # saturation_scale derates the mesh-calibrated knee on lower-bisection
    # fabrics (1.0 on the mesh, so mesh rates are bit-identical).
    sat = saturation_load("ur_half_4x8") * topo.saturation_scale
    low = 0.10 * sat
    # 0.80 of the *solo-calibrated* knee: once App0's inter-region stream
    # crosses the region the in-context saturation is lower than the solo
    # measurement, and 0.80x solo corresponds to the paper's "90% of its
    # saturation load" operating point (at 0.90x solo the region sits past
    # its effective knee and every priority decision shows up as a latency
    # blow-up rather than the paper's <3% App1 cost).
    high = 0.80 * sat

    def factory(seed: int) -> list:
        rngs = spawn_rngs(seed, 2)
        app0 = RegionalAppTraffic(
            rm, 0, rate=low, seed=rngs[0],
            intra_fraction=1.0 - p_inter, inter_fraction=p_inter, mc_fraction=0.0,
        )
        app1 = RegionalAppTraffic(
            rm, 1, rate=high, seed=rngs[1],
            intra_fraction=1.0, inter_fraction=0.0, mc_fraction=0.0,
        )
        return [app0, app1]

    return Scenario(
        name=f"two_app_p{int(round(p_inter * 100))}",
        config=config,
        region_map=rm,
        traffic_factory=factory,
        spec=ScenarioSpec("two_app_msp", {"p_inter": p_inter, "config": config}),
    )


# -- Fig. 11 / 12: four applications, DPA validation ---------------------------------


def four_app_dpa(variant: str, config: NocConfig | None = None) -> Scenario:
    """Fig. 11 scenarios: ``variant`` is ``"a"`` or ``"b"``.

    (a): Apps 0-2 low load with 30% inter-region traffic *towards App 3's
    region*; App 3 high load, all intra-region.
    (b): Apps 0-2 low load, all intra-region; App 3 high load with 30%
    inter-region traffic towards random other regions.
    """
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    config = config or NocConfig()
    topo = make_topology(config)
    rm = RegionMap.quadrants(topo)
    sat = saturation_load("ur_quad_4x4") * topo.saturation_scale
    low = 0.15 * sat
    high = 0.90 * sat

    def factory(seed: int) -> list:
        rngs = spawn_rngs(seed, 4)
        sources = []
        if variant == "a":
            to_app3 = UniformPattern(topo, rm.nodes_of(3))
            for app in (0, 1, 2):
                sources.append(
                    RegionalAppTraffic(
                        rm, app, rate=low, seed=rngs[app],
                        intra_fraction=0.70, inter_fraction=0.30, mc_fraction=0.0,
                        inter_pattern=to_app3,
                    )
                )
            sources.append(
                RegionalAppTraffic(
                    rm, 3, rate=high, seed=rngs[3],
                    intra_fraction=1.0, inter_fraction=0.0, mc_fraction=0.0,
                )
            )
        else:
            for app in (0, 1, 2):
                sources.append(
                    RegionalAppTraffic(
                        rm, app, rate=low, seed=rngs[app],
                        intra_fraction=1.0, inter_fraction=0.0, mc_fraction=0.0,
                    )
                )
            sources.append(
                RegionalAppTraffic(
                    rm, 3, rate=high, seed=rngs[3],
                    intra_fraction=0.70, inter_fraction=0.30, mc_fraction=0.0,
                )
            )
        return sources

    return Scenario(
        name=f"four_app_{variant}",
        config=config,
        region_map=rm,
        traffic_factory=factory,
        spec=ScenarioSpec("four_app_dpa", {"variant": variant, "config": config}),
    )


# -- Fig. 13 / 14 / 15: six applications ----------------------------------------------

#: Per-app load as a fraction of that app's *solo-calibrated* saturation
#: (paper: Apps 0,2,3,4 low-to-medium 10-30%; Apps 1,5 high 90%). The high
#: apps use 0.85 of the solo knee: with the other five applications'
#: transit and MC traffic crossing their regions, the effective in-context
#: saturation is lower than the solo measurement, and 0.85x solo lands at
#: about the paper's "90% of saturation" operating point (past it, the
#: 2x4-column region destabilizes and load-balanced routing rather than
#: arbitration dominates the comparison).
SIX_APP_LOADS: dict[int, float] = {0: 0.10, 1: 0.85, 2: 0.20, 3: 0.25, 4: 0.30, 5: 0.85}


def six_app(
    global_pattern: str = "ur",
    config: NocConfig | None = None,
    loads: dict[int, float] | None = None,
) -> Scenario:
    """Fig. 13: six regions, mixed loads, 75/20/5 intra/inter/MC traffic.

    The paper does not give the exact region geometry; we use a 2x3 grid
    (two columns of three regions), which keeps the high-load applications
    (1 and 5) out of the chip's central transit band — with a 3x2 grid the
    top-middle high region absorbs all deterministic-pattern transit
    (transpose/bit-complement cross the centre) and one saturated region
    dominates every average. Hotspot traffic targets the four chip-centre
    nodes (the classic choice) rather than the corners, which already
    serve as memory controllers.
    """
    config = config or NocConfig()
    topo = make_topology(config)
    rm = RegionMap.grid(topo, 2, 3)
    loads = dict(SIX_APP_LOADS if loads is None else loads)
    # Region sizes on the 8x8 mesh: rows of heights 3/3/2 x columns of
    # width 4 -> regions of 12, 12, 12, 12, 8, 8 nodes.
    sat_by_app = {
        app: saturation_load(
            "mix_grid6_2x4" if len(rm.nodes_of(app)) <= 8 else "mix_grid6_3x4"
        )
        * topo.saturation_scale
        for app in range(6)
    }
    center_hotspots = list(topo.center_nodes())

    def factory(seed: int) -> list:
        rngs = spawn_rngs(seed, 6)
        sources = []
        for app in range(6):
            if global_pattern == "ur":
                base = None
            elif global_pattern == "hs":
                base = make_pattern("hs", topo, hotspots=center_hotspots)
            else:
                base = make_pattern(global_pattern, topo)
            sources.append(
                RegionalAppTraffic(
                    rm, app, rate=loads[app] * sat_by_app[app], seed=rngs[app],
                    intra_fraction=0.75, inter_fraction=0.20, mc_fraction=0.05,
                    inter_pattern=base,
                )
            )
        return sources

    return Scenario(
        name=f"six_app_{global_pattern}",
        config=config,
        region_map=rm,
        traffic_factory=factory,
        spec=ScenarioSpec(
            "six_app",
            {"global_pattern": global_pattern, "config": config, "loads": loads},
        ),
    )


# -- Fig. 16 / 17: PARSEC applications + adversarial flood ----------------------------

#: quadrant placement of the paper's representative subset
PARSEC_APP_ORDER = ("blackscholes", "swaptions", "fluidanimate", "raytrace")


#: Relative pressure of the Fig.-17 flood. The paper injects 0.4
#: flits/cycle/node on a network whose uniform-random saturation is around
#: 0.45-0.5 — heavy, but leaving room for the (light) PARSEC traffic so a
#: steady state exists. Our simulator's UR knee is lower (3-cycle router
#: pipeline), so we scale the flood to the same *relative* pressure:
#: flood + tenant load stays just under the calibrated knee. An absolute
#: 0.4 here would be ~120% of saturation, where every scheme gridlocks and
#: slowdowns diverge with window length (DESIGN.md substitution #5).
ADVERSARIAL_PRESSURE = 0.70


def parsec_quadrants(
    adversarial: bool = False,
    adversarial_rate: float | None = None,
    config: NocConfig | None = None,
) -> Scenario:
    """Fig. 16: four PARSEC-like apps in quadrants; Fig. 17 adds the flood.

    Uses two virtual networks (request/reply protocol classes).
    ``adversarial_rate`` defaults to ``ADVERSARIAL_PRESSURE`` times the
    calibrated chip-wide uniform-random saturation load.
    """
    config = config or NocConfig(num_vnets=2)
    if config.num_vnets < 2:
        raise ValueError("PARSEC scenario needs >= 2 virtual networks")
    topo = make_topology(config)
    if adversarial_rate is None:
        adversarial_rate = (
            ADVERSARIAL_PRESSURE
            * saturation_load("ur_chip_8x8")
            * topo.saturation_scale
        )
    rm = RegionMap.quadrants(topo)
    profiles = [PARSEC_PROFILES[name] for name in PARSEC_APP_ORDER]

    def factory(seed: int) -> list:
        rngs = spawn_rngs(seed, 2)
        sources: list = [ParsecWorkload(rm, profiles, seed=rngs[0])]
        if adversarial:
            sources.append(
                AdversarialTrafficSource(
                    topo, seed=rngs[1], rate=adversarial_rate, region_map=rm
                )
            )
        return sources

    suffix = "_adv" if adversarial else ""
    return Scenario(
        name=f"parsec_quadrants{suffix}",
        config=config,
        region_map=rm,
        traffic_factory=factory,
        spec=ScenarioSpec(
            "parsec_quadrants",
            {
                "adversarial": adversarial,
                "adversarial_rate": adversarial_rate,
                "config": config,
            },
        ),
    )


#: Builder registry backing :meth:`ScenarioSpec.build` — every entry must
#: be a deterministic function of its keyword arguments.
SCENARIO_BUILDERS: dict[str, Callable[..., Scenario]] = {
    "two_app_msp": two_app_msp,
    "four_app_dpa": four_app_dpa,
    "six_app": six_app,
    "parsec_quadrants": parsec_quadrants,
}
