"""Unit tests for the fault-tolerance primitives of the cell engine:
exception classification, deterministic backoff, policy validation,
failure records, report accounting, and the serial retry loop."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.experiments.chaos import chaos_cell
from repro.experiments.parallel import (
    CellFailure,
    CellResult,
    ExecutionReport,
    FaultPolicy,
    backoff_delay,
    classify_exception,
    run_cells_detailed,
)
from repro.experiments.runner import SCHEMES, Effort
from repro.util.errors import (
    ConfigError,
    GuardError,
    SimulationError,
    TrafficError,
)

SCHEME = SCHEMES["RO_RR"]

#: near-zero backoff so retry tests don't sleep for real
FAST = FaultPolicy(max_attempts=3, backoff_base_s=0.001)

#: all the report fold reads of a run
RUN = SimpleNamespace(end_cycle=700)


class TestClassification:
    @pytest.mark.parametrize("exc", [
        ConfigError("x"),
        SimulationError("x"),
        TrafficError("x"),
        GuardError("x", reason="watchdog"),
        ValueError("x"),
        TypeError("x"),
        KeyError("x"),
        AssertionError("x"),
        ZeroDivisionError("x"),
    ])
    def test_deterministic_errors_are_not_retryable(self, exc):
        assert classify_exception(exc) is False

    @pytest.mark.parametrize("exc", [
        OSError("io"),
        MemoryError(),
    ])
    def test_environmental_errors_are_retryable(self, exc):
        assert classify_exception(exc) is True

    def test_unknown_exceptions_default_to_not_retryable(self):
        assert classify_exception(RuntimeError("novel bug")) is False

    def test_domain_subclasses_beat_oserror(self):
        # TrafficError-style domain errors must stay non-retryable even if
        # a future refactor makes one inherit from a retryable base.
        class DomainIOError(SimulationError, OSError):
            pass

        assert classify_exception(DomainIOError("x")) is False


class TestBackoff:
    POLICY = FaultPolicy(backoff_base_s=0.1, backoff_max_s=1.0)

    def test_deterministic_per_cell_and_attempt(self):
        assert backoff_delay(self.POLICY, 42, 1) == backoff_delay(self.POLICY, 42, 1)
        assert backoff_delay(self.POLICY, 42, 1) != backoff_delay(self.POLICY, 43, 1)
        assert backoff_delay(self.POLICY, 42, 1) != backoff_delay(self.POLICY, 42, 2)

    @pytest.mark.parametrize("attempt", [1, 2, 3, 8])
    def test_jitter_stays_within_half_to_threehalves_of_base(self, attempt):
        base = min(
            self.POLICY.backoff_max_s,
            self.POLICY.backoff_base_s * 2 ** (attempt - 1),
        )
        for seed in range(20):
            delay = backoff_delay(self.POLICY, seed, attempt)
            assert 0.5 * base <= delay < 1.5 * base

    def test_exponential_growth_is_capped(self):
        # attempt 8 would be 0.1 * 2^7 = 12.8s uncapped; the cap holds it
        assert backoff_delay(self.POLICY, 7, 8) < 1.5 * self.POLICY.backoff_max_s


class TestFaultPolicyValidation:
    def test_zero_attempts_rejected(self):
        with pytest.raises(ConfigError, match="max_attempts"):
            FaultPolicy(max_attempts=0)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigError, match="wall_timeout_s"):
            FaultPolicy(wall_timeout_s=0.0)

    @pytest.mark.parametrize("field", ["backoff_base_s", "backoff_max_s"])
    def test_negative_backoff_rejected(self, field):
        with pytest.raises(ConfigError, match=field):
            FaultPolicy(**{field: -0.5})

    def test_defaults_are_valid(self):
        policy = FaultPolicy()
        assert policy.max_attempts == 3
        assert policy.wall_timeout_s is None


class TestCellFailure:
    def test_summary_is_one_line(self):
        f = CellFailure(
            error_type="OSError", message="disk on fire\ndetails follow",
            traceback="...", wall_time_s=1.0, retryable=True,
        )
        assert f.summary() == "OSError: disk on fire"

    def test_summary_without_message(self):
        f = CellFailure(
            error_type="MemoryError", message="", traceback="",
            wall_time_s=0.1, retryable=True,
        )
        assert f.summary() == "MemoryError"


class TestExecutionReport:
    def test_quiet_counters_stay_out_of_metrics(self):
        m = ExecutionReport(cells=4, jobs=2).to_metrics()
        assert m["cells"] == 4 and m["jobs"] == 2
        assert m["failures"] == 0  # always present: the headline counter
        for absent in ("retries", "timeouts", "resumed", "cache_errors",
                       "cache_hits", "cache_misses"):
            assert absent not in m

    def test_nonzero_counters_appear(self):
        report = ExecutionReport(
            cells=4, jobs=2, cached=True, cache_hits=1, cache_misses=2,
            retries=5, failures=1, timeouts=1, resumed=1, cache_errors=2,
        )
        m = report.to_metrics()
        assert m["cache_hits"] == 1 and m["cache_misses"] == 2
        assert m["retries"] == 5 and m["failures"] == 1
        assert m["timeouts"] == 1 and m["resumed"] == 1
        assert m["cache_errors"] == 2

    def test_fold_splits_ok_results_by_source(self):
        ok = [CellResult(cell=None, index=i, run=RUN, source=s)
              for i, s in enumerate(["simulated", "cache", "journal", "replay"])]
        failed = CellResult(cell=None, index=4, attempts=2, failure=CellFailure(
            "CellTimeout", "", "", 1.0, False), source="replay")
        report = ExecutionReport.of([*ok, failed], jobs=2, cached=True, cache_errors=3)
        assert (report.cells, report.cache_misses, report.cache_hits, report.resumed,
                report.replayed, report.failures) == (5, 1, 2, 1, 1, 1)
        assert (report.sim_cycles, report.retries, report.timeouts,
                report.cache_errors) == (RUN.end_cycle, 1, 1, 3)

    def test_cycles_per_sec_guards_zero_wall_time(self):
        assert ExecutionReport(cells=1, jobs=1, sim_cycles=100).cycles_per_sec == 0.0


class TestSerialRetryLoop:
    """jobs=1 path: faults fire in-process, so records are fully observable."""

    def test_flaky_cell_heals_on_retry(self, tmp_path):
        cell = chaos_cell(SCHEME, Effort.SMOKE, seed=1, mode="flaky",
                          marker=str(tmp_path / "m"))
        results, report = run_cells_detailed([cell], jobs=1, policy=FAST)
        assert results[0].ok
        assert results[0].attempts == 2
        assert report.retries == 1
        assert report.failures == 0

    def test_transient_failure_burns_all_attempts(self):
        cell = chaos_cell(SCHEME, Effort.SMOKE, seed=1, mode="raise_transient")
        results, report = run_cells_detailed([cell], jobs=1, policy=FAST)
        failure = results[0].failure
        assert failure is not None
        assert failure.error_type == "OSError"
        assert failure.retryable is True
        assert results[0].attempts == FAST.max_attempts
        assert report.retries == FAST.max_attempts - 1
        assert report.failures == 1

    def test_deterministic_failure_fails_fast(self):
        cell = chaos_cell(SCHEME, Effort.SMOKE, seed=1, mode="raise")
        results, report = run_cells_detailed([cell], jobs=1, policy=FAST)
        failure = results[0].failure
        assert failure.error_type == "SimulationError"
        assert failure.retryable is False
        assert results[0].attempts == 1
        assert report.retries == 0
        assert "chaos" in failure.traceback  # real traceback text captured

    def test_one_poisoned_cell_does_not_abort_its_neighbours(self):
        cells = [
            chaos_cell(SCHEME, Effort.SMOKE, seed=1, mode="ok", cell_id=0),
            chaos_cell(SCHEME, Effort.SMOKE, seed=2, mode="raise"),
            chaos_cell(SCHEME, Effort.SMOKE, seed=3, mode="ok", cell_id=1),
        ]
        results, report = run_cells_detailed(cells, jobs=1, policy=FAST)
        assert [r.ok for r in results] == [True, False, True]
        assert report.failures == 1
