"""Shared fixtures and helpers for the test suite.

Most integration tests run tiny meshes (4x4) and short windows so the whole
suite stays fast; the experiment harness itself is exercised at reduced
scale through dedicated integration tests.
"""

from __future__ import annotations

import pytest

from repro import build_simulation
from repro.core.regions import RegionMap
from repro.noc.config import NocConfig
from repro.noc.topology import MeshTopology
from repro.traffic.patterns import UniformPattern
from repro.traffic.synthetic import FixedLength, SyntheticTrafficSource


@pytest.fixture
def small_config() -> NocConfig:
    """A 4x4 mesh with the default VC layout."""
    return NocConfig(width=4, height=4)


@pytest.fixture
def small_topology() -> MeshTopology:
    return MeshTopology(4, 4)


@pytest.fixture
def halves_map(small_topology) -> RegionMap:
    return RegionMap.halves(small_topology)


def run_uniform(
    scheme: str = "rr",
    routing: str = "xy",
    rate: float = 0.05,
    width: int = 4,
    height: int = 4,
    warmup: int = 100,
    measure: int = 500,
    seed: int = 7,
    region_map: RegionMap | None = None,
    length=None,
    policy_kwargs: dict | None = None,
):
    """Run a small uniform-random simulation; returns (sim, net, result)."""
    cfg = NocConfig(width=width, height=height)
    sim, net = build_simulation(
        cfg, region_map=region_map, scheme=scheme, routing=routing,
        policy_kwargs=policy_kwargs,
    )
    src = SyntheticTrafficSource(
        nodes=range(cfg.num_nodes),
        rate=rate,
        pattern=UniformPattern(net.topology),
        app_id=0,
        seed=seed,
        lengths=length or FixedLength(1),
        region_map=region_map,
    )
    sim.add_traffic(src)
    result = sim.run_measurement(warmup=warmup, measure=measure, drain_limit=20_000)
    return sim, net, result
