"""Seed-matrix determinism: the cache and naive arms, obs bytes, cache counts.

The matrix (one cell per distinct ``(policy, routing, policy_kwargs)`` in
``SCHEMES``, two seeds, four sweeps) is the session fixture
``seed_matrix`` in ``conftest.py``. Per distinct scheme, the warm cache
and the naive loop (fast-forward off) give the serial run and obs
summary, and the obs JSONL bytes of serial, ``jobs2`` and naive are
equal; the cold sweep misses and the warm one hits every cell. Together
with ``test_parallel.py::test_replicate_parallel_matches_serial`` (serial
== ``jobs2`` for every key) this is the engine half of the proof (serial
== parallel == cache); the kernel half (fast-forward == naive on idle
workloads and policy boundary replay) is ``test_fast_forward.py``.
"""

from __future__ import annotations

import pytest

from repro.experiments.parallel import cell_obs_name
from tests.integration.conftest import CELLS, KEYS, OBS_ARMS, SEEDS, assert_same_run


@pytest.mark.parametrize("key", KEYS)
def test_cache_gives_the_serial_run(key, seed_matrix):
    arms, _ = seed_matrix
    serial, warm = arms["serial"][0], arms["warm"][0]
    for seed in SEEDS:
        want = serial[key, seed]
        assert want.obs is not None
        assert want.obs.samples > 0
        assert want.obs.latency["native"]["count"] > 0
        assert_same_run(warm[key, seed], want, "warm")


@pytest.mark.parametrize("key", KEYS)
def test_fast_forward_matches_naive(key, seed_matrix):
    arms, _ = seed_matrix
    got, want = arms["naive"][0][key, SEEDS[0]], arms["serial"][0][key, SEEDS[0]]
    assert_same_run(got, want, "naive")


@pytest.mark.parametrize("key", KEYS)
def test_obs_streams_are_byte_identical(key, seed_matrix):
    _, root = seed_matrix
    for cell in CELLS:
        if cell.scheme.key != key:
            continue
        name = f"{cell_obs_name(cell)}.jsonl"
        arms = OBS_ARMS if cell.seed == SEEDS[0] else OBS_ARMS[:2]
        want = (root / "serial" / name).read_bytes()
        for arm in arms[1:]:
            assert (root / arm / name).read_bytes() == want, (arm, name)


def test_each_sweep_simulates_or_hits_every_cell(seed_matrix):
    arms, root = seed_matrix
    cold, warm = arms["serial"][1], arms["warm"][1]
    assert cold.cache_misses == cold.cells == len(CELLS)
    assert warm.cache_hits == warm.cells == len(CELLS)
    assert warm.sim_cycles == 0  # nothing was re-simulated
    # One stream per simulated cell, named by the cell's identity slug.
    for arm in OBS_ARMS:
        cells = [c for c in CELLS if arm != "naive" or c.seed == SEEDS[0]]
        assert sorted(p.name for p in (root / arm).iterdir()) == sorted(
            f"{cell_obs_name(c)}.jsonl" for c in cells
        )
