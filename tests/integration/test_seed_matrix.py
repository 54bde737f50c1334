"""Seed-matrix determinism: serial × parallel × cache-hit, three seeds.

The engine's core guarantee is that a cell's result is a function of the
cell alone. This test runs the same scenario at three seeds through every
execution path — serial in-process, two worker processes, and a
cache-hit restore — and asserts:

* every simulation-determined field is bit-identical across paths
  (``ScenarioRun.__eq__`` plus ``determinism_signature``),
* the observability summaries are equal across paths (including the one
  restored from the result cache), and
* the obs JSONL *files* from the serial and parallel runs are
  byte-identical — the stream, not just its digest, is deterministic.
"""

from __future__ import annotations

import pathlib

from repro.experiments.parallel import (
    Cell,
    FaultPolicy,
    cell_obs_name,
    run_cells_detailed,
)
from repro.experiments.runner import SCHEMES, Effort
from repro.experiments.scenarios import two_app_msp
from repro.obs import ObsConfig

SEEDS = (11, 12, 13)


def _cells():
    return [
        Cell.for_scenario(SCHEMES["RA_RAIR"], two_app_msp(0.4), Effort.SMOKE, seed=s)
        for s in SEEDS
    ]


def _policy(tmp_path: pathlib.Path, sub: str) -> FaultPolicy:
    return FaultPolicy(obs=ObsConfig(dir=str(tmp_path / sub), sample_period=50))


def _runs(cells, **engine):
    """The runs of a sweep that must not fail, and its report."""
    results, report = run_cells_detailed(cells, **engine)
    assert all(r.ok for r in results), [r.failure for r in results]
    return [r.run for r in results], report


def test_seed_matrix_serial_parallel_cache_identical(tmp_path):
    cells = _cells()

    runs_serial, _ = _runs(cells, jobs=1, policy=_policy(tmp_path, "serial"))
    runs_par, _ = _runs(cells, jobs=2, policy=_policy(tmp_path, "par"))

    cache = str(tmp_path / "cache")
    runs_cold, report_cold = _runs(
        cells, jobs=1, cache=cache, policy=_policy(tmp_path, "cold")
    )
    runs_hit, report_hit = _runs(cells, jobs=1, cache=cache)
    assert report_cold.cache_misses == len(SEEDS)
    assert report_hit.cache_hits == len(SEEDS)
    assert report_hit.sim_cycles == 0  # nothing was re-simulated

    for serial, par, cold, hit in zip(runs_serial, runs_par, runs_cold, runs_hit):
        sig = serial.determinism_signature()
        assert par.determinism_signature() == sig
        assert cold.determinism_signature() == sig
        assert hit.determinism_signature() == sig
        # Dataclass equality covers every compared field at once.
        assert serial == par == cold == hit
        # Obs summaries: equal across execution paths, including the one
        # the cache-hit path restored from the stored payload.
        assert serial.obs is not None
        assert serial.obs == par.obs == cold.obs == hit.obs
        assert serial.obs.samples > 0
        assert serial.obs.latency["native"]["count"] > 0

    # Seeds must actually differ from each other (the matrix is 3 distinct
    # simulations, not one repeated).
    signatures = {run.determinism_signature() for run in runs_serial}
    assert len(signatures) == len(SEEDS)


def test_obs_jsonl_streams_byte_identical_across_jobs(tmp_path):
    cells = _cells()
    _runs(cells, jobs=1, policy=_policy(tmp_path, "serial"))
    _runs(cells, jobs=2, policy=_policy(tmp_path, "par"))

    serial_dir = tmp_path / "serial"
    par_dir = tmp_path / "par"
    names = sorted(p.name for p in serial_dir.iterdir())
    assert names == sorted(p.name for p in par_dir.iterdir())
    assert len(names) == len(SEEDS)
    # File names are the deterministic per-cell slugs.
    assert set(names) == {f"{cell_obs_name(c)}.jsonl" for c in cells}
    for name in names:
        assert (serial_dir / name).read_bytes() == (par_dir / name).read_bytes(), (
            f"obs stream {name} differs between jobs=1 and jobs=2"
        )
