"""Determinism and caching acceptance tests for the parallel cell engine.

Two guarantees hold the whole layer together:

* bit-identity — fanning cells over worker processes must not perturb a
  single sample (every RNG stream derives from the cell seed, never from
  worker identity or scheduling order),
* cache transparency — a warm cache returns the same runs without
  simulating a single cycle.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.experiments.chaos import chaos_cell
from repro.experiments.fig09_msp import run as fig09_run
from repro.experiments.parallel import Cell, FaultPolicy, run_cells_detailed
from repro.experiments.runner import SCHEMES, Effort
from repro.experiments.scenarios import two_app_msp
from repro.util.errors import ConfigError

SEEDS = [1, 2]


@pytest.fixture(scope="module")
def signatures_by_jobs():
    """One cell list, every scheme x two seeds, run at jobs=1 and at jobs=4."""
    cells = [
        Cell.for_scenario(SCHEMES[key], two_app_msp(0.5), Effort.SMOKE, seed)
        for key in sorted(SCHEMES)
        for seed in SEEDS
    ]
    return cells, [
        [r.run.determinism_signature() for r in run_cells_detailed(cells, jobs=jobs)[0]]
        for jobs in (1, 4)
    ]


@pytest.mark.parametrize("key", sorted(SCHEMES))
def test_replicate_parallel_matches_serial(key, signatures_by_jobs):
    """jobs=1 vs jobs=4 runs are bit-identical, per scheme and seed."""
    cells, (serial, para) = signatures_by_jobs
    mine = [i for i, cell in enumerate(cells) if cell.scheme.key == key]
    assert len(mine) == len(SEEDS) and serial[mine[0]] != serial[mine[1]]
    assert [serial[i] for i in mine] == [para[i] for i in mine]


class TestCellEngine:
    def test_for_scenario_requires_spec(self):
        scenario = two_app_msp(0.5)
        stripped = type(scenario)(
            name=scenario.name,
            config=scenario.config,
            region_map=scenario.region_map,
            traffic_factory=scenario.traffic_factory,
            spec=None,
        )
        with pytest.raises(ConfigError, match="spec"):
            Cell.for_scenario(SCHEMES["RO_RR"], stripped, Effort.SMOKE, 1)

    def test_bad_jobs_rejected(self):
        cell = Cell.for_scenario(SCHEMES["RO_RR"], two_app_msp(0.5), Effort.SMOKE, 1)
        with pytest.raises(ConfigError, match="jobs"):
            run_cells_detailed([cell], jobs=0)

    def test_cell_cache_round_trip(self, tmp_path):
        cell = Cell.for_scenario(SCHEMES["RA_RAIR"], two_app_msp(0.5), Effort.SMOKE, 3)
        (cold,), _ = run_cells_detailed([cell], cache=tmp_path)
        (warm,), _ = run_cells_detailed([cell], cache=tmp_path)
        assert (cold.source, warm.source) == ("simulated", "cache")
        assert warm.run.determinism_signature() == cold.run.determinism_signature()

    def test_warm_sweep_starts_no_process(self, tmp_path, monkeypatch):
        scheme = SCHEMES["RO_RR"]
        cells = [chaos_cell(scheme, Effort.SMOKE, s, cell_id=s) for s in (1, 2)]
        run_cells_detailed(cells, cache=tmp_path, use_journal=False)

        def refuse(proc):
            raise AssertionError("a warm sweep started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        warm, _ = run_cells_detailed(cells, jobs=4, cache=tmp_path, use_journal=False)
        assert [r.source for r in warm] == ["cache", "cache"]
        run_cells_detailed(cells, jobs=4, cache=tmp_path)  # journals the hits
        again, report = run_cells_detailed(cells, jobs=4, cache=tmp_path)
        assert [r.source for r in again] == ["journal", "journal"]
        assert report.resumed == report.cache_hits == report.cells == 2


@pytest.mark.chaos
class TestBitIdentityUnderRetries:
    """Retries, backoff, and dead workers must not perturb a single sample.

    Strategy: run with jobs=3 *first*, while the faults are armed — the
    kill_once cell SIGKILLs its own worker (WorkerDied + retry) and the
    flaky cell raises a transient OSError once (backoff + retry).
    Both faults disarm themselves through their marker files, so the
    jobs=1 rerun sees no fault at all; the parallel-with-retries samples
    must still be bit-identical to that clean serial baseline.
    """

    def build_cells(self, tmp_path):
        scheme = SCHEMES["RA_RAIR"]
        cells = [
            chaos_cell(scheme, Effort.SMOKE, seed=300 + i, mode="ok", cell_id=i)
            for i in range(4)
        ]
        cells.insert(1, chaos_cell(
            scheme, Effort.SMOKE, seed=298, mode="kill_once",
            marker=str(tmp_path / "kill_once.marker"),
        ))
        cells.insert(3, chaos_cell(
            scheme, Effort.SMOKE, seed=299, mode="flaky",
            marker=str(tmp_path / "flaky.marker"),
        ))
        return cells

    def test_jobs_n_with_retries_matches_clean_jobs_1(self, tmp_path):
        policy = FaultPolicy(max_attempts=4, backoff_base_s=0.01)
        cells = self.build_cells(tmp_path)
        para, report = run_cells_detailed(cells, jobs=3, policy=policy)
        assert (tmp_path / "kill_once.marker").exists()
        assert (tmp_path / "flaky.marker").exists()
        assert all(r.ok for r in para)
        assert report.retries >= 2  # the crash victim and the flaky cell
        assert para[1].attempts >= 2 and para[3].attempts >= 2

        serial, serial_report = run_cells_detailed(cells, jobs=1, policy=policy)
        assert all(r.ok for r in serial)
        assert serial_report.retries == 0  # faults disarmed: clean baseline
        for p, s in zip(para, serial):
            assert p.run.determinism_signature() == s.run.determinism_signature()


class TestMediumAcceptance:
    """ISSUE acceptance: MEDIUM-effort figure sweep, serial vs jobs=4 vs warm."""

    KW = dict(
        effort=Effort.MEDIUM,
        seed=42,
        p_values=(0.0, 1.0),
        schemes=("RO_RR", "RAIR_VA+SA"),
    )

    def test_parallel_bit_identical_and_warm_cache_hits_everything(self, tmp_path):
        serial = fig09_run(**self.KW)
        cold = fig09_run(**self.KW, jobs=4, cache=tmp_path)
        assert cold.rows == serial.rows  # bit-identical floats
        assert cold.metrics["cache_misses"] == 4
        assert cold.metrics["cache_hits"] == 0

        warm = fig09_run(**self.KW, jobs=4, cache=tmp_path)
        assert warm.rows == serial.rows
        assert warm.metrics["cache_hits"] == 4
        assert warm.metrics["cache_misses"] == 0
        assert warm.metrics["sim_cycles"] == 0  # zero simulator cycles
