"""Property-based fault accounting of the cell engine.

Random small sweeps mix clean cells with cells that raise, fail once,
kill their worker once, or kill it every time. Because each cell attempt
runs in its own worker process, the accounting is exact whatever the mix:
a cell's attempt count is a function of its own fault mode and the
policy, never of what its neighbours did.

Marked ``chaos`` (workers really are SIGKILLed); ``kill`` cells must
never run in-process, so the ``jobs=1`` reference covers survivors only —
after the parallel run, when the marker files have disarmed their faults.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.chaos import chaos_cell
from repro.experiments.parallel import FaultPolicy, run_cells_detailed
from repro.experiments.runner import SCHEMES, Effort

pytestmark = pytest.mark.chaos

SCHEME = SCHEMES["RO_RR"]

#: fault mode -> (survives, attempts as a function of max_attempts)
EXPECTED = {
    "ok": (True, lambda k: 1),
    "raise": (False, lambda k: 1),
    "flaky": (True, lambda k: 2),
    "kill_once": (True, lambda k: 2),
    "kill": (False, lambda k: k),
}

modes = st.lists(st.sampled_from(sorted(EXPECTED)), min_size=3, max_size=8)


@given(modes, st.sampled_from([2, 3]), st.sampled_from([2, 3]))
@settings(max_examples=10, deadline=None)
def test_every_attempt_is_charged_to_its_own_cell(modes, jobs, max_attempts):
    policy = FaultPolicy(max_attempts=max_attempts, backoff_base_s=0.001)
    with tempfile.TemporaryDirectory() as markers:
        cells = [
            chaos_cell(SCHEME, Effort.SMOKE, seed=600 + i, mode=mode,
                       marker=f"{markers}/{i}.marker", cell_id=i)
            for i, mode in enumerate(modes)
        ]
        results, report = run_cells_detailed(cells, jobs=jobs, policy=policy)

        assert [r.cell for r in results] == cells  # one each, input order
        for res, mode in zip(results, modes):
            survives, attempts = EXPECTED[mode]
            assert res.ok == survives, mode
            assert res.attempts == attempts(max_attempts), mode
        failures = {r.index: r.failure for r in results if not r.ok}
        for i, failure in failures.items():
            assert failure.error_type == (
                "WorkerDied" if modes[i] == "kill" else "SimulationError"
            )
        assert report.failures == len(failures)
        assert report.retries == sum(r.attempts - 1 for r in results)
        assert report.cache_hits + report.cache_misses + report.replayed + (
            report.failures) == report.cells
        assert report.resumed <= report.cache_hits

        survivors = [r for r in results if r.ok]
        serial, serial_report = run_cells_detailed(
            [r.cell for r in survivors], jobs=1, policy=policy
        )
        assert serial_report.retries == 0  # markers exist: faults disarmed
        assert [r.run.determinism_signature() for r in survivors] == [
            r.run.determinism_signature() for r in serial
        ]
