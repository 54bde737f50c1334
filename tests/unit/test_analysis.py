"""The §III.B closed form, held to two oracles written here: a predicate
over a concrete mapping and a Monte-Carlo count of random mappings."""

import numpy as np
import pytest

from repro.analysis import lbdr_valid_fraction
from repro.util.errors import ConfigError
from repro.util.rng import make_rng


def mapping_is_lbdr_valid(node_app, mc_nodes) -> bool:
    """Whether every application (node -> app id, -1 unassigned) owns an MC
    node: under LBDR an application without one cannot reach memory."""
    apps = {a for a in node_app if a >= 0}
    covered = {node_app[n] for n in mc_nodes if node_app[n] >= 0}
    return apps <= covered


def lbdr_valid_fraction_montecarlo(cores=16, mcs=4, apps=4, trials=20_000, seed=0):
    """Admissible share of uniform random equal-size mappings."""
    rng = make_rng(seed)
    mc_nodes = tuple(range(mcs))  # which nodes are MCs is immaterial by symmetry
    assignment = np.repeat(np.arange(apps), cores // apps)
    hits = 0
    for _ in range(trials):
        node_app = np.empty(cores, dtype=np.int64)
        node_app[rng.permutation(cores)] = assignment
        hits += mapping_is_lbdr_valid(node_app.tolist(), mc_nodes)
    return hits / trials


class TestLbdrClosedForm:
    def test_paper_number(self):
        """16 cores, 4 MCs, 4 apps -> ~14% (paper Section III.B)."""
        assert lbdr_valid_fraction(16, 4, 4) == pytest.approx(0.1407, abs=0.0005)

    def test_more_regions_than_mcs_is_impossible(self):
        # "the number of regions ... is at most the number of MCs".
        assert lbdr_valid_fraction(16, 2, 4) == 0.0

    def test_fewer_regions_than_mcs_not_covered_by_closed_form(self):
        with pytest.raises(ConfigError):
            lbdr_valid_fraction(16, 8, 4)

    def test_uneven_tiling_rejected(self):
        with pytest.raises(ConfigError):
            lbdr_valid_fraction(16, 4, 3)

    def test_trivial_cases(self):
        # One app, one MC: the app always contains the MC.
        assert lbdr_valid_fraction(8, 1, 1) == 1.0
        # Two apps of size 1 on 2 cores with 2 MCs: both mappings valid.
        assert lbdr_valid_fraction(2, 2, 2) == 1.0

    def test_fraction_shrinks_with_app_size_imbalance(self):
        # Larger chips with the same 4 MCs/4 apps stay near-similar but the
        # value is always a proper fraction.
        for cores in (16, 32, 64):
            frac = lbdr_valid_fraction(cores, 4, 4)
            assert 0.0 < frac < 1.0


class TestLbdrPredicate:
    def test_valid_mapping(self):
        node_app = [0, 1, 2, 3, 0, 1, 2, 3]
        assert mapping_is_lbdr_valid(node_app, mc_nodes=[0, 1, 2, 3])

    def test_invalid_mapping(self):
        node_app = [0, 0, 1, 1, 2, 2, 3, 3]
        # MCs all land in apps 0 and 1: apps 2/3 cannot reach memory.
        assert not mapping_is_lbdr_valid(node_app, mc_nodes=[0, 1, 2, 3])

    def test_unassigned_nodes_ignored(self):
        node_app = [0, -1, 0, -1]
        assert mapping_is_lbdr_valid(node_app, mc_nodes=[0])
        assert not mapping_is_lbdr_valid(node_app, mc_nodes=[1])


class TestLbdrMonteCarlo:
    def test_agrees_with_closed_form(self):
        exact = lbdr_valid_fraction(16, 4, 4)
        empirical = lbdr_valid_fraction_montecarlo(16, 4, 4, trials=20_000, seed=1)
        assert empirical == pytest.approx(exact, abs=0.01)

    def test_deterministic_under_seed(self):
        a = lbdr_valid_fraction_montecarlo(trials=2000, seed=3)
        b = lbdr_valid_fraction_montecarlo(trials=2000, seed=3)
        assert a == b

