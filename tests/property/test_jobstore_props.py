"""Generated crash recovery of the sweep service's job store.

Random step sequences drive a :class:`~repro.service.daemon.SweepDaemon`
against one store directory: submit a job, finish some of its cells,
end it as done or cancelled, tear the last write at a random byte (the
daemon died inside that append), and restart. A model tracks what is
durable — acknowledged submits, cell indices, complete ``job_end``
records — and every restart checks the recovered job table against it.
At the end each live job runs through ``SweepDaemon._run_job``, and
every stream must then hold each cell index once and one ``job_end``.

Cells are chaos ``ok`` cells at ``rate=0`` (an idle 4x4 mesh), so the
engine costs milliseconds per cell. This file also covers two
hand-written cases it replaced: a torn journal tail does not break
replay (:func:`test_recovery_matches_the_model`, its ``tear`` step) and
a stream's cell indices count once each (the ``completed`` check).
"""

from __future__ import annotations

import dataclasses
import json
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.chaos import chaos_cell
from repro.experiments.parallel import run_cells_detailed
from repro.experiments.runner import SCHEMES, Effort
from repro.service.daemon import SweepDaemon
from repro.service.jobstore import JobStore
from repro.service.protocol import JobSpec, cell_result_to_wire, encode_value


def idle_cell(cell_id: int):
    return chaos_cell(
        SCHEMES["RO_RR"], Effort.SMOKE, 1, mode="ok", cell_id=cell_id, rate=0
    )


#: one finished cell, re-indexed for every record a ``finish`` step writes
(DONE,), _ = run_cells_detailed([idle_cell(0)])

steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(1, 3)),
        st.tuples(st.just("finish"), st.integers(0, 7), st.integers(1, 3)),
        st.tuples(
            st.just("end"), st.integers(0, 7), st.sampled_from(["done", "cancelled"])
        ),
        st.tuples(st.just("tear"), st.floats(0, 1, exclude_max=True)),
        st.tuples(st.just("restart")),
    ),
    max_size=14,
)


class Model:
    """What the store holds durably, written beside each real append."""

    def __init__(self):
        self.cells: dict[str, int] = {}  # acknowledged job -> cell count
        self.done: dict[str, set[int]] = {}  # job -> durable cell indices
        self.ended: dict[str, dict] = {}  # job -> status in its job_end
        self.undo = None  # (path, undo) of the last append, until a restart

    def live(self) -> list[str]:
        return [job_id for job_id in self.cells if job_id not in self.ended]


def submit(daemon: SweepDaemon, model: Model, n_cells: int) -> None:
    spec = JobSpec(cells=[idle_cell(i) for i in range(n_cells)])
    body = json.dumps(encode_value(spec)).encode()
    job_id = daemon.route("POST", "/v1/jobs", body)[1]["id"]
    model.cells[job_id] = n_cells
    model.done[job_id] = set()
    model.undo = (daemon.store.journal_path, lambda: model.cells.pop(job_id))


def finish(daemon: SweepDaemon, model: Model, job_id: str, k: int) -> None:
    """Append up to ``k`` cell records, as the daemon's publish does."""
    job = daemon.jobs[job_id]
    for index in sorted(set(range(model.cells[job_id])) - model.done[job_id])[:k]:
        result = dataclasses.replace(DONE, index=index)
        daemon.store.append_result(job_id, cell_result_to_wire(result, job.completed))
        job.completed += 1
        model.done[job_id].add(index)
        model.undo = (
            daemon.store.result_path(job_id),
            lambda index=index: model.done[job_id].discard(index),
        )


def end(daemon: SweepDaemon, model: Model, job_id: str, state: str) -> None:
    daemon._end(daemon.jobs[job_id], state, None)
    model.ended[job_id] = daemon.jobs[job_id].status_wire()
    model.undo = (daemon.store.result_path(job_id), lambda: model.ended.pop(job_id))


def tear(model: Model, at: float) -> None:
    """Cut the last append inside its JSON text: that record is lost."""
    path, undo = model.undo
    data = path.read_bytes()
    stop = len(data) - 1  # the record's closing newline
    start = data.rindex(b"\n", 0, stop) + 1
    path.write_bytes(data[: start + int(at * (stop - start))])
    undo()


def restart(root: str, model: Model) -> SweepDaemon:
    daemon = SweepDaemon(JobStore(root))
    live = daemon.recover()
    model.undo = None
    assert list(daemon.jobs) == list(model.cells)  # every acknowledged submit
    assert live == len(model.live())
    for job_id, job in daemon.jobs.items():
        assert job.completed == len(model.done[job_id])
        if job_id in model.ended:
            assert job.status_wire() == model.ended[job_id]  # terminal, as it ended
        else:
            assert job.state == "queued"
    return daemon


@given(steps)
@settings(max_examples=30, deadline=None)
def test_recovery_matches_the_model(steps):
    with tempfile.TemporaryDirectory() as root:
        model = Model()
        daemon = restart(root, model)
        for step in steps:
            live = model.live()
            if step[0] == "submit":
                submit(daemon, model, step[1])
            elif step[0] == "finish" and live:
                finish(daemon, model, live[step[1] % len(live)], step[2])
            elif step[0] == "end" and live:
                end(daemon, model, live[step[1] % len(live)], step[2])
            elif step[0] == "tear" and model.undo is not None:
                tear(model, step[1])
                daemon = restart(root, model)  # the daemon died in that append
            elif step[0] == "restart":
                daemon = restart(root, model)

        daemon = restart(root, model)
        for job_id in model.live():
            daemon._run_job(daemon.jobs[job_id])
        for job_id, n_cells in model.cells.items():
            records = daemon.store.result_records(job_id)
            indices = [r["index"] for r in records if r["kind"] == "cell"]
            kinds = [r["kind"] for r in records]
            assert kinds.count("job_end") == 1 and kinds[-1] == "job_end"
            assert len(indices) == len(set(indices))
            if job_id in model.ended:  # ended by a step: what it had finished
                assert set(indices) == model.done[job_id]
            else:
                assert sorted(indices) == list(range(n_cells))
