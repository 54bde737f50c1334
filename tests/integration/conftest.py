"""The seed matrix: the sweeps behind the engine's identity guarantee.

A cell's result is a function of the cell alone. One cell per distinct
``(policy, routing, policy_kwargs)`` in ``SCHEMES``, at two seeds, runs
through four sweeps, built once per session: ``serial`` (in-process, obs,
cold cache), ``jobs2`` (worker processes, obs), ``warm`` (the serial cache,
all hits) and ``naive`` (first seed, in-process, obs, fast-forward off).
``test_parallel.py::test_replicate_parallel_matches_serial`` holds every
``SCHEMES`` key's ``jobs2`` runs to its serial runs; ``test_seed_matrix.py``
holds the warm and naive arms, the obs streams and the cache counts.
"""

from __future__ import annotations

import pytest

from repro.experiments.parallel import Cell, FaultPolicy, run_cells_detailed
from repro.experiments.runner import SCHEMES, Effort
from repro.experiments.scenarios import two_app_msp
from repro.noc.sim import Simulator
from repro.obs import ObsConfig

SEEDS = (1, 2)


def _same_as() -> dict[str, str]:
    """Each SCHEMES key -> the first key of its (policy, routing, policy_kwargs)."""
    first = {}
    return {
        key: first.setdefault((s.policy, s.routing, repr(s.policy_kwargs)), key)
        for key, s in SCHEMES.items()
    }


#: every SCHEMES key -> the key whose cells simulate it
SAME_AS = _same_as()

#: one key per distinct simulation
KEYS = list(dict.fromkeys(SAME_AS.values()))

CELLS = [
    Cell.for_scenario(SCHEMES[key], two_app_msp(0.5), Effort.SMOKE, seed=seed)
    for key in KEYS
    for seed in SEEDS
]

#: arms whose obs streams are recorded (the warm arm simulates nothing)
OBS_ARMS = ("serial", "jobs2", "naive")


def assert_same_run(got, want, arm):
    assert got.determinism_signature() == want.determinism_signature(), arm
    # Dataclass equality covers every compared field at once.
    assert got == want, arm
    # Equal across execution paths, including a summary the warm arm
    # restored from the cached payload.
    assert got.obs == want.obs, arm


def _sweep(cells, **engine):
    """``(key, seed) -> run`` for a sweep that must not fail, and its report."""
    results, report = run_cells_detailed(cells, **engine)
    assert all(r.ok for r in results), [r.failure for r in results]
    runs = {(c.scheme.key, c.seed): r.run for c, r in zip(cells, results)}
    return runs, report


@pytest.fixture(scope="session")
def seed_matrix(tmp_path_factory):
    """The four arms' sweeps, and the directory holding their obs streams."""
    root = tmp_path_factory.mktemp("seed_matrix")

    def obs(arm):
        return FaultPolicy(obs=ObsConfig(dir=str(root / arm), sample_period=50))

    cache = str(root / "cache")
    arms = {
        "serial": _sweep(CELLS, cache=cache, policy=obs("serial")),
        "jobs2": _sweep(CELLS, jobs=2, policy=obs("jobs2")),
        "warm": _sweep(CELLS, cache=cache),
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulator, "_ff_eligible", lambda self: False)
        naive_cells = [c for c in CELLS if c.seed == SEEDS[0]]
        arms["naive"] = _sweep(naive_cells, policy=obs("naive"))
    return arms, root
