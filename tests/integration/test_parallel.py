"""The parallel cell engine: bit-identity, construction, caching, retries.

The engine's identity guarantee is proved once, on the seed matrix's
sweeps (the session fixture ``seed_matrix`` in ``conftest.py``): here,
``jobs=2`` gives the serial run for every ``SCHEMES`` key; in
``test_seed_matrix.py``, so do the warm cache and the naive loop. The
figure-level version (a ``jobs=2`` sweep against a cold then warm cache
renders the golden table) is ``test_golden_figures.py``'s
``test_golden_table[fig09_smoke_jobs2]``. This file also covers:

* cell construction and argument checks,
* cache and journal sources, and a warm sweep starting no process,
* bit-identity under retries, backoff and dead workers.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.experiments.chaos import chaos_cell
from repro.experiments.parallel import Cell, FaultPolicy, run_cells_detailed
from repro.experiments.runner import SCHEMES, Effort
from repro.experiments.scenarios import two_app_msp
from repro.util.errors import ConfigError
from tests.integration.conftest import SAME_AS, SEEDS, assert_same_run


@pytest.mark.parametrize("key", sorted(SCHEMES))
def test_replicate_parallel_matches_serial(key, seed_matrix):
    """Serial and jobs=2 runs are bit-identical, per scheme and seed.

    A key that is the same simulation as an earlier key is checked on
    that key's cells.
    """
    arms, _ = seed_matrix
    serial, para = arms["serial"][0], arms["jobs2"][0]
    first, second = (serial[SAME_AS[key], seed] for seed in SEEDS)
    assert first.determinism_signature() != second.determinism_signature()
    for seed in SEEDS:
        assert_same_run(para[SAME_AS[key], seed], serial[SAME_AS[key], seed], "jobs2")


class TestCellEngine:
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

