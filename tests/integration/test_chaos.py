"""Chaos acceptance tests: the fault-tolerant engine under injected faults.

The ISSUE acceptance scenario: a 24-cell sweep containing one cell that
always raises, one that hangs past the wall-clock timeout, and one that
SIGKILLs its worker must complete with 21 clean runs and 3 structured
failures, in input order — and a re-invocation against the same cache
directory must resume without re-simulating a single clean cell.

Everything here is marked ``chaos`` (process-killing, timeout-driven,
seconds-scale): ``pytest -m chaos`` runs just this lane, ``-m "not
chaos"`` excludes it.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.experiments.chaos import chaos_cell
from repro.experiments.parallel import FaultPolicy, run_cells_detailed
from repro.experiments.runner import SCHEMES, Effort

pytestmark = pytest.mark.chaos

SCHEME = SCHEMES["RO_RR"]

POLICY = FaultPolicy(backoff_base_s=0.01, wall_timeout_s=2.5)

RAISE_AT, HANG_AT, KILL_AT = 3, 11, 17
FAULTY = {RAISE_AT: "raise", HANG_AT: "hang", KILL_AT: "kill"}


def acceptance_cells():
    return [
        chaos_cell(SCHEME, Effort.SMOKE, seed=100 + i,
                   mode=FAULTY.get(i, "ok"), cell_id=i)
        for i in range(24)
    ]


class TestAcceptanceSweep:
    def test_one_poisoned_cell_never_aborts_the_sweep(self, tmp_path):
        cells = acceptance_cells()
        results, report = run_cells_detailed(
            cells, jobs=4, cache=tmp_path, policy=POLICY
        )

        # -- input order, one result per cell --------------------------------
        assert len(results) == 24
        assert [r.index for r in results] == list(range(24))
        assert [r.cell for r in results] == cells

        # -- 21 clean runs, 3 structured failures -----------------------------
        ok = [r for r in results if r.ok]
        failed = {r.index: r.failure for r in results if not r.ok}
        assert len(ok) == 21
        assert sorted(failed) == sorted(FAULTY)
        assert report.failures == 3

        # a dying or timed-out worker is charged to its own cell only
        assert all(r.attempts == 1 for r in ok)
        assert report.retries == 2  # the killer's second and third attempt

        # deterministic error fails fast, no retries burned on it
        assert failed[RAISE_AT].error_type == "SimulationError"
        assert failed[RAISE_AT].retryable is False
        assert results[RAISE_AT].attempts == 1
        assert "injected deterministic failure" in failed[RAISE_AT].message

        # wedged worker is killed by the parent's wall-clock deadline
        assert failed[HANG_AT].error_type == "CellTimeout"
        assert failed[HANG_AT].wall_time_s >= POLICY.wall_timeout_s
        assert results[HANG_AT].attempts == 1
        assert report.timeouts == 1

        # worker-killing cell burns its own attempts, nobody else's
        assert failed[KILL_AT].error_type == "WorkerDied"
        assert "code -9" in failed[KILL_AT].message
        assert results[KILL_AT].attempts == POLICY.max_attempts == 3

        # every failure is a complete record
        for failure in failed.values():
            assert failure.message
            assert failure.wall_time_s >= 0.0

        # clean cells were simulated exactly once and cached
        assert report.cache_misses == 21
        assert report.cache_hits == 0
        assert report.sim_cycles > 0

        # -- re-invocation resumes the 21 clean cells from the journal --------
        results2, report2 = run_cells_detailed(
            acceptance_cells(), jobs=4, cache=tmp_path, policy=POLICY
        )
        assert report2.resumed == report2.cache_hits == 21
        assert report2.cache_hits + report2.failures == report2.cells
        assert report2.sim_cycles == 0  # zero cycles re-simulated
        assert report2.failures == 3  # the poisoned cells fail the same way
        assert {i: f.error_type for i, f in
                ((r.index, r.failure) for r in results2 if not r.ok)} == {
            RAISE_AT: "SimulationError",
            HANG_AT: "CellTimeout",
            KILL_AT: "WorkerDied",
        }
        for before, after in zip(results, results2):
            if before.ok:
                assert after.source == "journal"
                assert (after.run.determinism_signature()
                        == before.run.determinism_signature())


class TestWorkerCrashRecovery:
    def test_sigkill_once_retries_only_the_victim(self, tmp_path):
        """A worker SIGKILLed once: victim retried, neighbours untouched."""
        marker = tmp_path / "kill_once.marker"
        cells = [
            chaos_cell(SCHEME, Effort.SMOKE, seed=200 + i, mode="ok", cell_id=i)
            for i in range(5)
        ]
        cells.insert(2, chaos_cell(
            SCHEME, Effort.SMOKE, seed=199, mode="kill_once", marker=str(marker)
        ))
        results, report = run_cells_detailed(
            cells, jobs=3, policy=FaultPolicy(backoff_base_s=0.01),
        )
        assert marker.exists()  # the fault actually fired
        assert all(r.ok for r in results)
        assert report.failures == 0
        assert report.retries == 1
        assert [r.attempts for r in results] == [1, 1, 2, 1, 1, 1]

    def test_refused_fork_is_a_retryable_failure_of_that_cell(self, monkeypatch):
        """``Process.start`` raising (EAGAIN, ENOMEM) costs one attempt, no more."""
        real_start = multiprocessing.process.BaseProcess.start
        refused = []

        def start(proc):
            if not refused:
                refused.append(proc)
                raise OSError("chaos: fork refused")
            real_start(proc)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        cells = [
            chaos_cell(SCHEME, Effort.SMOKE, seed=300 + i, mode="ok", cell_id=i)
            for i in range(3)
        ]
        results, report = run_cells_detailed(
            cells, jobs=2, policy=FaultPolicy(backoff_base_s=0.01)
        )
        assert [r.attempts for r in results] == [2, 1, 1]
        assert all(r.ok for r in results)
        assert report.retries == 1


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a child interpreter that can import what pytest can."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )


def run_lone_cell(
    mode: str, policy: str, jobs: int = 2
) -> subprocess.CompletedProcess:
    """One chaos cell in a child interpreter; prints the failure.

    A lone cell used to run in the caller's process, where ``hang`` never
    returned and ``kill`` took the caller down — hence the subprocess and
    its timeout: a regression fails this test instead of pytest.
    """
    return run_python(f"""
from repro.experiments.chaos import chaos_cell
from repro.experiments.parallel import FaultPolicy, run_cells_detailed
from repro.experiments.runner import SCHEMES, Effort

cell = chaos_cell(SCHEMES["RO_RR"], Effort.SMOKE, seed=1, mode={mode!r})
policy = FaultPolicy({policy})
(result,), report = run_cells_detailed([cell], jobs={jobs}, policy=policy)
print(result.failure.error_type, result.attempts, report.timeouts)
""")


class TestLoneCellIsIsolatedToo:
    def test_lone_hang_cell_times_out(self):
        proc = run_lone_cell("hang", "wall_timeout_s=1.0")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["CellTimeout", "1", "1"]

    def test_lone_kill_cell_spares_the_caller(self):
        proc = run_lone_cell("kill", "backoff_base_s=0.01")
        assert proc.returncode == 0, proc.stderr  # -9: the caller was killed
        assert proc.stdout.split() == ["WorkerDied", "3", "0"]

    def test_wall_timeout_is_enforced_at_jobs_1(self):
        proc = run_lone_cell("hang", "wall_timeout_s=1.0", jobs=1)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["CellTimeout", "1", "1"]


class TestStartMethod:
    def test_spawned_workers_match_jobs_1(self):
        """Nothing in the engine leans on fork: spawn gives the same samples."""
        proc = run_python("""
import multiprocessing
from repro.experiments.chaos import chaos_cell
from repro.experiments.parallel import run_cells_detailed
from repro.experiments.runner import SCHEMES, Effort

multiprocessing.set_start_method("spawn")
cells = [chaos_cell(SCHEMES["RA_RAIR"], Effort.SMOKE, seed=700 + i, cell_id=i)
         for i in range(3)]
para, _ = run_cells_detailed(cells, jobs=2)
serial, _ = run_cells_detailed(cells, jobs=1)
assert [r.run.determinism_signature() for r in para] == [
    r.run.determinism_signature() for r in serial]
print("identical", len(para))
""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["identical", "3"]


class TestNothingLeftBehind:
    def test_sixty_cells_leak_no_process_and_no_descriptor(self):
        """Every reaped worker is joined and closed, its pipe too."""
        cells = [
            chaos_cell(SCHEME, Effort.SMOKE, seed=500 + i, mode="ok", cell_id=i)
            for i in range(60)
        ]
        fds_before = len(os.listdir("/proc/self/fd"))
        results, _report = run_cells_detailed(cells, jobs=4)
        assert all(r.ok for r in results)
        # Descriptors first: active_children() itself reaps finished
        # workers, which would hide a sentinel left open by a missing close.
        assert len(os.listdir("/proc/self/fd")) == fds_before
        assert multiprocessing.active_children() == []
