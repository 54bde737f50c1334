"""Every run input has one spelling.

A cell's cache key is its simulation's identity, so two names for one
policy, routing algorithm, traffic pattern or fabric would file one
simulation under two keys. Each registry therefore maps exactly one exact,
case-sensitive name to each class, and every name the experiments use
resolves.
"""

import pytest

from repro.arbitration import _REGISTRY as POLICIES
from repro.arbitration import make_policy
from repro.experiments.ablation_routing import ROUTINGS
from repro.experiments.fig15_patterns import PATTERNS
from repro.experiments.runner import SCHEMES
from repro.noc.config import NocConfig
from repro.noc.topology import _TOPOLOGY_CLASSES, TOPOLOGY_KINDS, MeshTopology, make_topology
from repro.routing import _REGISTRY as ROUTING_ALGORITHMS
from repro.routing import make_routing
from repro.traffic.patterns import _REGISTRY as TRAFFIC_PATTERNS
from repro.traffic.patterns import make_pattern

#: ``rair`` is built by make_policy itself (its module imports the package)
POLICY_NAMES = (*POLICIES, "rair")

TOPO = MeshTopology(8, 8)


def one_class_per_name(build, names):
    classes = [type(build(name)) for name in names]
    assert len(set(classes)) == len(classes), dict(zip(names, classes))


def test_each_class_answers_to_one_name():
    one_class_per_name(make_policy, POLICY_NAMES)
    one_class_per_name(make_routing, ROUTING_ALGORITHMS)
    one_class_per_name(lambda name: make_pattern(name, TOPO), TRAFFIC_PATTERNS)
    one_class_per_name(lambda kind: make_topology(NocConfig(topology=kind)), TOPOLOGY_KINDS)
    assert TOPOLOGY_KINDS == tuple(_TOPOLOGY_CLASSES)


def test_every_name_the_experiments_use_resolves():
    assert {s.policy for s in SCHEMES.values()} <= set(POLICY_NAMES)
    assert {s.routing for s in SCHEMES.values()} | set(ROUTINGS) <= set(ROUTING_ALGORITHMS)
    assert set(PATTERNS) <= set(TRAFFIC_PATTERNS)


@pytest.mark.parametrize(
    "build, name",
    [
        *((make_policy, n) for n in "ro_rr round_robin rank ro_rank RR Rair".split()),
        *((make_routing, n) for n in "duato wf oe XY Local".split()),
        *(
            (lambda n: make_pattern(n, TOPO), n)
            for n in "uniform uniform_random transpose bit_complement bitcomp hotspot UR".split()
        ),
    ],
)
def test_no_second_spelling(build, name):
    with pytest.raises(ValueError, match="known"):
        build(name)
