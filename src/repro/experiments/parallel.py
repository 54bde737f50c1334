"""Fault-tolerant parallel execution of experiment cells.

A **cell** is the unit of experiment work: one ``(scheme, scenario spec,
effort, seed)`` simulation. Cells are mutually independent — every
stochastic input is derived from the cell's own seed via ``SeedSequence``
spawning — so a figure sweep is an embarrassingly parallel map.

Each cell is also its own **fault domain**: :func:`run_cells_detailed`
returns one :class:`CellResult` per cell, holding either the finished
:class:`~repro.experiments.runner.ScenarioRun` or a structured
:class:`CellFailure` (exception type, message, traceback, wall time),
plus the attempt count and where the result came from (its ``source``).
One poisoned cell never aborts the sweep; the other cells complete and
the caller decides how to render the hole. The sweep's
:class:`ExecutionReport` is folded from those results.

Under ``--jobs N`` the isolation is by construction, not by recovery:
every cell *attempt* runs in its own worker process (at most ``jobs``
alive, platform-default start method), which reports over its own pipe
and exits. A worker that dies or is killed takes down exactly the cell
it was running — no other cell is ever charged an attempt for it. The
price is a process start per attempt instead of per worker, measured at
≈ 2 ms under ``fork`` and ≈ 0.15 s (interpreter start plus imports)
under ``spawn``, against cells that cost 0.3–2.5 s at SMOKE and minutes
at paper scale (docs/ARCHITECTURE.md has the measurements).

Resilience mechanisms, all governed by a :class:`FaultPolicy`:

* **Retry with backoff** — transient failures (worker death, cache I/O
  errors) are retried up to ``max_attempts`` times with exponential
  backoff; the jitter is derived from the cell seed
  (:func:`backoff_delay`), never from a global RNG, so retry timing is
  deterministic per cell. A dead worker (OOM kill, SIGKILL, hard crash)
  is a ``WorkerDied`` failure carrying its exit code. Deterministic
  errors (``ConfigError``, ``SimulationError``, assertion-like bugs) are
  classified non-retryable and fail immediately
  (:func:`classify_exception`).
* **Deadlines** — a simulation bounds itself (fixed warmup and measure
  windows, a drain limit, and stall watchdogs in every phase), and
  ``wall_timeout_s`` is enforced by the *parent* for wedged workers:
  an attempt whose process outlives it is killed — that process only —
  and recorded as a ``CellTimeout`` failure. A wall timeout puts cells
  in worker processes at any job count.
* **Cache and checkpoint/resume** — with a cache directory, the parent
  restores every cached cell before dispatch, so workers only simulate
  and write entries, and a warm sweep starts no process. Completed cells
  are journaled (:class:`~repro.experiments.cache.SweepJournal`); the
  journal decides only the label: a restored cell it lists is
  ``"journal"`` (an earlier invocation of this sweep finished it), any
  other ``"cache"``.

Determinism guarantee: the per-cell results are a function of the cell
alone, never of scheduling, retries, or resume. Workers rebuild the
scenario from its :class:`~repro.experiments.scenarios.ScenarioSpec`,
seed it identically, and results are collected *in submission order* —
so ``jobs=N`` is bit-identical to ``jobs=1`` for every
simulation-determined field, including under injected faults (asserted
by ``tests/integration/test_parallel.py`` and ``test_chaos.py``).
"""

from __future__ import annotations

import collections
import hashlib
import time
import traceback as _tb
from dataclasses import dataclass

from repro.experiments.cache import ResultCache, SweepJournal, cache_key
from repro.experiments.runner import Effort, ScenarioRun, Scheme, run_scenario
from repro.experiments.scenarios import ScenarioSpec
from repro.util.errors import ConfigError, ReproError

__all__ = [
    "Cell",
    "CellFailure",
    "CellResult",
    "ExecutionReport",
    "FaultPolicy",
    "SOURCES",
    "backoff_delay",
    "cell_obs_name",
    "classify_exception",
    "compute_cell",
    "run_cells_detailed",
]


@dataclass(frozen=True)
class Cell:
    """One independent experiment unit, picklable and content-hashable.

    The scheme carries the policy kwargs and the spec the network config.
    """

    scheme: Scheme
    spec: ScenarioSpec
    effort: Effort
    seed: int

    @classmethod
    def for_scenario(
        cls, scheme: Scheme, scenario, effort: Effort, seed: int
    ) -> "Cell":
        """Build a cell from a live :class:`Scenario`."""
        return cls(scheme=scheme, spec=scenario.spec, effort=effort, seed=seed)

    def describe(self) -> str:
        """Short human-readable identity for logs and failure rows."""
        return f"{self.scheme.key}/{self.spec.builder}[seed={self.seed}]"


@dataclass(frozen=True)
class FaultPolicy:
    """Everything one cell attempt runs under — none of it the cell's identity.

    The rule: a setting for the whole sweep (``jobs``, ``cache``,
    ``use_journal``, ``service``, ``on_result``) is a keyword of
    :func:`run_cells_detailed`; everything one cell attempt runs under is
    this policy. No policy field enters a cache key, because none changes
    what a finished simulation computes:

    * ``max_attempts`` / ``backoff_*`` — the retry schedule
      (:func:`backoff_delay`);
    * ``wall_timeout_s`` — the parent kills an attempt that outlives it;
      never retried, since on a deterministic simulation it almost always
      recurs;
    * ``obs`` — an optional :class:`repro.obs.ObsConfig`: a simulated cell
      writes its JSONL stream, a cache hit restores whatever summary the
      original run stored (possibly none) and writes nothing;
    * ``guard`` — an optional :class:`repro.noc.guard.GuardConfig`: a
      tripped guard fails the cell under its classified label
      (``Deadlock``, ``CreditConservation``, ...), so tables print
      ``FAILED(Deadlock)``. Only a stall during the drain phase is the
      run's ``abort`` instead (see
      :class:`~repro.noc.sim.MeasurementResult`); a failed cell is never
      cached.

    ``obs`` and ``guard`` are typed ``object`` so that importing the engine
    does not import :mod:`repro.obs`.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    wall_timeout_s: float | None = None
    obs: object | None = None
    guard: object | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        for name in ("backoff_base_s", "backoff_max_s"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.wall_timeout_s is not None and self.wall_timeout_s <= 0:
            raise ConfigError(
                f"wall_timeout_s must be > 0, got {self.wall_timeout_s}"
            )


@dataclass
class CellFailure:
    """Structured record of a cell that exhausted its attempts.

    The same record on every path: ``traceback`` is text, because the
    exception may have been raised in another process.
    """

    error_type: str
    message: str
    traceback: str
    wall_time_s: float
    retryable: bool

    def summary(self) -> str:
        """One-line ``Type: first line of message`` form for table cells."""
        first = self.message.splitlines()[0] if self.message else ""
        return f"{self.error_type}: {first}" if first else self.error_type


#: where a :class:`CellResult` came from: computed in this call, restored
#: from the result cache, restored because this sweep's journal lists it,
#: or replayed by the sweep daemon from a job's durable stream after a restart
SOURCES = ("simulated", "cache", "journal", "replay")


@dataclass
class CellResult:
    """Outcome of one cell: exactly one of ``run`` / ``failure`` is set.

    ``attempts`` and ``source`` (one of :data:`SOURCES`) are recorded here
    and only here: the run itself is what the simulation computed, the
    same whichever attempt produced it or wherever it was restored from.
    """

    cell: Cell
    index: int
    run: ScenarioRun | None = None
    failure: CellFailure | None = None
    #: execution attempts charged to the cell (1 = first try)
    attempts: int = 1
    source: str = "simulated"

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise ConfigError(
                f"unknown result source {self.source!r}; known: {SOURCES}"
            )

    @property
    def ok(self) -> bool:
        return self.run is not None


#: deterministic outcomes of the cell itself — retrying cannot change them.
#: Checked before _RETRYABLE, so a type deriving from both (a domain error
#: that is also an OSError, or io.UnsupportedOperation) is not retried.
_NON_RETRYABLE = (
    ReproError,  # ConfigError, SimulationError, TrafficError, ...
    ValueError,
    TypeError,
    KeyError,
    AttributeError,
    IndexError,
    ZeroDivisionError,
    AssertionError,
)

#: environmental failures worth another attempt
_RETRYABLE = (OSError, MemoryError)


def classify_exception(exc: BaseException) -> bool:
    """True if ``exc`` is plausibly transient (worth retrying).

    Deterministic errors — config mistakes, simulator invariants,
    programming bugs — are checked first: retrying a pure function on the
    same inputs cannot help. Environmental errors (I/O, memory pressure)
    are retryable. Unknown exception types default to **non-retryable**,
    so a novel bug surfaces once instead of three times slower.
    """
    if isinstance(exc, _NON_RETRYABLE):
        return False
    return isinstance(exc, _RETRYABLE)


def backoff_delay(policy: FaultPolicy, seed: int, attempt: int) -> float:
    """Exponential backoff with deterministic, cell-derived jitter.

    ``attempt`` is 1-based (the attempt that just failed). The jitter
    factor in [0.5, 1.5) comes from a SHA-256 over ``seed:attempt`` — not
    from a global RNG — so two runs of the same sweep retry on the same
    schedule and simulation RNG streams are untouched.
    """
    base = min(policy.backoff_max_s, policy.backoff_base_s * (2 ** (attempt - 1)))
    h = hashlib.sha256(f"{seed}:{attempt}".encode("utf-8")).digest()
    frac = int.from_bytes(h[:8], "big") / 2**64
    return base * (0.5 + frac)


def cell_obs_name(cell: Cell) -> str:
    """Deterministic per-cell file stem: identity slug + key prefix.

    :func:`run_scenario` names a run's obs stream and guard blackbox with
    it. The cache-key prefix disambiguates cells that share scheme,
    builder, and seed but differ in effort, config or policy kwargs (e.g.
    a hysteresis sweep), so an obs directory gets one file per cell. The
    stem is sanitized, so a dotted builder's ``:`` never reaches a path.
    """
    from repro.obs.exporters import sanitize_name

    return sanitize_name(
        f"{cell.scheme.key}_{cell.spec.builder}_s{cell.seed}"
        f"_{cache_key(cell)[:10]}"
    )


def compute_cell(cell: Cell, policy: FaultPolicy | None = None) -> ScenarioRun:
    """Simulate one cell from scratch under ``policy`` (no cache involvement)."""
    policy = policy or FaultPolicy()
    return run_scenario(
        cell.scheme,
        cell.spec.build(),
        effort=cell.effort,
        seed=cell.seed,
        obs=policy.obs,
        guard=policy.guard,
    )


def _execute(
    cell: Cell, key: str | None, cache_dir: str | None, policy: FaultPolicy
) -> tuple[ScenarioRun, int]:
    """Simulate one cell and cache the run; in-process or inside a worker.

    Returns ``(run, cache_errors)``. The cache is only written here — the
    parent has already restored every cached cell — and a failed write is
    a counted error, never a failed cell.
    """
    run = compute_cell(cell, policy)
    if key is None:
        return run, 0
    try:
        ResultCache(cache_dir).put(key, run)
    except Exception:
        return run, 1
    return run, 0


def _error_record(exc: BaseException) -> tuple[str, str, str, bool]:
    """``(label, message, traceback, retryable)`` of the exception being handled."""
    return (
        # A guard-classified failure renders as FAILED(Deadlock) etc.
        getattr(exc, "failure_label", type(exc).__name__),
        str(exc),
        _tb.format_exc(),
        classify_exception(exc),
    )


def _worker(conn, cell: Cell, key, cache_dir, policy: FaultPolicy) -> None:
    """Worker-process entry point: one cell attempt, one message on ``conn``.

    The outcome travels as a tagged tuple instead of a raised exception:
    ``("ok", run, cache_errors)`` or ``("err", label, message,
    traceback, retryable)`` — exception objects themselves may not
    pickle, and the parent needs the traceback text for the failure
    record either way. A run that will not pickle fails inside ``send``
    before a byte is written, so it is reported as an ``err`` too.
    Workers write their obs JSONL directly (the per-cell file names from
    :func:`cell_obs_name` cannot collide); only the summary rides back on
    the pickled run.
    """
    try:
        conn.send(("ok", *_execute(cell, key, cache_dir, policy)))
    except Exception as exc:
        conn.send(("err", *_error_record(exc)))


@dataclass
class ExecutionReport:
    """What one sweep cost, folded from its results by :meth:`of`.

    ``failures`` counts every failed result, whatever its source; the ok
    results split by source into ``cache_misses`` (simulated),
    ``cache_hits`` (cache or journal) and ``replayed``, so the four add up
    to ``cells``. ``resumed`` is the journal share of the hits.
    ``retries`` counts attempts beyond each cell's first; ``timeouts``
    counts the failures that were wall-clock expiries.
    """

    cells: int
    jobs: int
    cache_hits: int = 0
    cache_misses: int = 0
    wall_time_s: float = 0.0
    #: simulator cycles actually executed (restored results contribute zero)
    sim_cycles: int = 0
    cached: bool = False
    retries: int = 0
    failures: int = 0
    timeouts: int = 0
    resumed: int = 0
    replayed: int = 0
    #: cache writes and journal appends that failed and were survived
    cache_errors: int = 0

    @classmethod
    def of(cls, results, jobs: int, cached: bool, wall_time_s=0.0, cache_errors=0):
        """The report of ``results``; only what no one result holds is passed in."""
        ok = collections.Counter(r.source for r in results if r.ok)
        failed = [r.failure for r in results if not r.ok]
        return cls(
            cells=len(results),
            jobs=jobs,
            cache_hits=ok["cache"] + ok["journal"],
            cache_misses=ok["simulated"],
            wall_time_s=wall_time_s,
            sim_cycles=sum(
                r.run.end_cycle for r in results if r.ok and r.source == "simulated"
            ),
            cached=cached,
            retries=sum(r.attempts - 1 for r in results),
            failures=len(failed),
            timeouts=sum(f.error_type == "CellTimeout" for f in failed),
            resumed=ok["journal"],
            replayed=ok["replay"],
            cache_errors=cache_errors,
        )

    @property
    def cycles_per_sec(self) -> float:
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.sim_cycles / self.wall_time_s

    def to_metrics(self) -> dict:
        """Counters in :attr:`FigureResult.metrics` form."""
        out = {
            "cells": self.cells,
            "jobs": self.jobs,
            "wall_time_s": round(self.wall_time_s, 3),
            "sim_cycles": self.sim_cycles,
            "cycles_per_sec": round(self.cycles_per_sec, 1),
            "failures": self.failures,
        }
        if self.cached:
            out["cache_hits"] = self.cache_hits
            out["cache_misses"] = self.cache_misses
        for key in ("retries", "timeouts", "resumed", "replayed", "cache_errors"):
            value = getattr(self, key)
            if value:
                out[key] = value
        return out


@dataclass
class _Pending:
    """Scheduler bookkeeping for one not-yet-finished cell."""

    index: int
    cell: Cell
    key: str | None
    #: failed attempts so far (error, worker death or timeout), each
    #: charged against ``max_attempts``
    attempts: int = 0
    #: monotonic time before which the cell must not be restarted
    ready_at: float = 0.0
    #: monotonic time of the first start (for failure wall time)
    started_at: float = 0.0


class _Sweep:
    """Shared state + recording helpers for one run_cells_detailed call."""

    def __init__(self, policy: FaultPolicy, journal, on_result=None):
        self.policy = policy
        self.journal = journal
        self.on_result = on_result
        self.results: dict[int, CellResult] = {}
        #: failed cache writes and journal appends (no result holds them)
        self.cache_errors = 0

    def record(self, result: CellResult, journal_key: str | None = None) -> None:
        """Keep ``result``, hand it to ``on_result``, journal ``journal_key``."""
        self.results[result.index] = result
        if self.on_result is not None:
            self.on_result(result)
        if self.journal is None or journal_key is None:
            return
        try:
            self.journal.record(journal_key)
        except OSError:
            self.cache_errors += 1

    def record_ok(self, entry: _Pending, run: ScenarioRun, cerr: int):
        self.cache_errors += cerr
        self.record(
            CellResult(
                cell=entry.cell, index=entry.index, run=run, attempts=entry.attempts + 1
            ),
            entry.key,
        )

    def retry_delay(
        self, entry: _Pending, now: float, error_type: str, message: str,
        traceback_text: str, retryable: bool
    ) -> float | None:
        """Charge the failed attempt and take the one retry decision.

        A retryable error with attempts left returns the backoff delay the
        caller must honour before re-running the cell; anything else records
        the failure and returns ``None``.
        """
        entry.attempts += 1
        if retryable and entry.attempts < self.policy.max_attempts:
            return backoff_delay(self.policy, entry.cell.seed, entry.attempts)
        failure = CellFailure(
            error_type=error_type,
            message=message,
            traceback=traceback_text,
            wall_time_s=now - entry.started_at,
            retryable=retryable,
        )
        self.record(CellResult(
            cell=entry.cell, index=entry.index, failure=failure, attempts=entry.attempts
        ))
        return None


def _run_serial(work: list[_Pending], cache_dir, sweep: _Sweep) -> None:
    for entry in work:
        entry.started_at = time.monotonic()
        while True:
            try:
                run, cerr = _execute(entry.cell, entry.key, cache_dir, sweep.policy)
            except Exception as exc:
                delay = sweep.retry_delay(entry, time.monotonic(), *_error_record(exc))
                if delay is None:
                    break
                time.sleep(delay)
                continue
            sweep.record_ok(entry, run, cerr)
            break


def _reap(recv, proc, kill: bool = False) -> int | None:
    """Close an attempt's pipe, join and close its process; the exit code."""
    if kill:
        proc.kill()  # SIGKILL: a wedged worker ignores terminate
    recv.close()
    proc.join()
    code = proc.exitcode
    proc.close()
    return code


def _run_parallel(work: list[_Pending], jobs: int, cache_dir, sweep: _Sweep) -> None:
    """One worker process per cell attempt, at most ``jobs`` alive.

    The process is the fault domain: a worker that dies is a retryable
    ``WorkerDied`` failure of exactly the cell it was running, and a
    wall-clock expiry kills exactly that process — no other cell is
    charged an attempt. A process is started the moment it is submitted,
    so its deadline is measured from its own start. The loop sleeps on
    the result pipes, the process sentinels (a dead worker may never
    close its pipe: a sibling forked by another thread can hold a copy)
    and the nearest deadline or backoff expiry.
    """
    # Imported here: only the pool needs multiprocessing (about 1.3 MB of
    # RSS), and a serial sweep or a kernel-only process should not pay it.
    import multiprocessing
    from multiprocessing.connection import wait

    policy = sweep.policy
    ctx = multiprocessing.get_context()
    queue: collections.deque[_Pending] = collections.deque(work)
    running: dict = {}  # result pipe -> (_Pending, Process, deadline | None)

    def retry_or_fail(entry: _Pending, now: float, *failure) -> None:
        """Requeue ``entry`` behind its backoff, or record ``failure``."""
        delay = sweep.retry_delay(entry, now, *failure)
        if delay is not None:
            entry.ready_at = now + delay
            queue.append(entry)

    try:
        while queue or running:
            now = time.monotonic()
            # -- fill free slots -------------------------------------------------
            while queue and len(running) < jobs and queue[0].ready_at <= now:
                entry = queue.popleft()
                if entry.started_at == 0.0:
                    entry.started_at = now
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_worker,
                    args=(send, entry.cell, entry.key, cache_dir, policy),
                )
                try:
                    proc.start()
                except Exception as exc:  # fork refused / unpicklable under spawn
                    recv.close()
                    retry_or_fail(entry, now, *_error_record(exc))
                else:
                    timeout = policy.wall_timeout_s
                    running[recv] = (entry, proc, now + timeout if timeout else None)
                finally:
                    send.close()  # the worker holds the only write end

            # -- wait for a result, a death, a deadline, or a backoff expiry ----
            wake = [d for _e, _p, d in running.values() if d is not None]
            if queue and len(running) < jobs:
                wake.append(queue[0].ready_at)
            sentinels = [proc.sentinel for _e, proc, _d in running.values()]
            ready = set(wait(
                [*running, *sentinels], max(0.0, min(wake) - now) if wake else None
            ))
            now = time.monotonic()

            for recv, (entry, proc, deadline) in list(running.items()):  # start order
                finished = recv in ready or proc.sentinel in ready
                if not finished and (deadline is None or now < deadline):
                    continue  # still running, still in time
                del running[recv]
                if finished:
                    try:
                        # Once the sentinel has fired, an empty pipe stays empty.
                        outcome = recv.recv() if recv.poll() else None
                    except (EOFError, OSError):
                        outcome = None  # died mid-send
                    code = _reap(recv, proc)
                    if outcome is None:
                        outcome = (
                            "err", "WorkerDied",
                            f"worker process exited with code {code} while "
                            f"running {entry.cell.describe()}",
                            "", True,
                        )
                else:
                    _reap(recv, proc, kill=True)
                    outcome = (
                        "err", "CellTimeout",
                        f"wall-clock timeout after {policy.wall_timeout_s}s "
                        f"running {entry.cell.describe()}",
                        "", False,
                    )
                if outcome[0] == "ok":
                    sweep.record_ok(entry, *outcome[1:])
                else:
                    retry_or_fail(entry, now, *outcome[1:])
    finally:
        for recv, (_entry, proc, _deadline) in running.items():
            _reap(recv, proc, kill=True)


def run_cells_detailed(
    cells,
    jobs: int = 1,
    cache=None,
    policy: FaultPolicy | None = None,
    use_journal: bool = True,
    service=None,
    on_result=None,
) -> tuple[list[CellResult], ExecutionReport]:
    """Execute ``cells`` fault-tolerantly; one :class:`CellResult` each.

    Results come back in input order. Every cell attempt runs under
    ``policy`` (a :class:`FaultPolicy`). ``jobs=1`` runs serially in this
    process; ``jobs>1`` gives every cell attempt its own worker process,
    at most ``jobs`` alive at once — and so does ``jobs=1`` under a
    ``policy.wall_timeout_s``, one at a time, because only a separate
    process can be killed when its deadline expires. ``cache`` is a
    directory path or :class:`ResultCache`; when given, every cached cell
    is restored here before dispatch (``source="cache"``, or
    ``"journal"`` when this sweep's journal lists it), simulated cells are
    persisted, and completed cell keys are journaled per sweep.
    ``use_journal=False`` disables the journal (single-cell convenience
    calls skip it automatically).

    ``service`` routes the whole sweep through a running sweep-service
    daemon (:mod:`repro.service`) instead of executing locally: a URL
    string or :class:`repro.service.client.ServiceSpec` (which adds a
    priority class). The daemon executes this very function with the
    same cells, policy and cache, so results — including cache keys and
    obs JSONL bytes — are identical to direct execution.
    ``on_result`` is an optional callable invoked with each
    :class:`CellResult` as it is recorded (restored cells first, then
    completion order); it must not raise.
    """
    cells = list(cells)
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if service is not None:
        from repro.service.client import run_cells_via_service

        return run_cells_via_service(
            service,
            cells,
            jobs=jobs,
            cache=cache,
            policy=policy,
            use_journal=use_journal,
            on_result=on_result,
        )
    policy = policy or FaultPolicy()
    store = cache
    if cache is not None and not isinstance(cache, ResultCache):
        store = ResultCache(cache)
    cache_dir = None if store is None else str(store.root)
    start = time.perf_counter()
    keys = [None] * len(cells) if cache_dir is None else [cache_key(c) for c in cells]
    journal, journaled = None, set()
    if cache_dir is not None and use_journal and len(cells) > 1:
        journal = SweepJournal(cache_dir, SweepJournal.key_for(keys))
        try:
            journaled = journal.load()
        except OSError:
            pass
    sweep = _Sweep(policy, journal, on_result=on_result)
    work: list[_Pending] = []
    for i, (cell, key) in enumerate(zip(cells, keys)):
        # ResultCache.get turns a corrupt or unreadable entry into a miss
        run = None if key is None else store.get(key)
        if run is None:
            # a journaled cell whose entry is gone (evicted, or its
            # cache write failed) is simply re-run
            work.append(_Pending(index=i, cell=cell, key=key))
        elif key in journaled:
            sweep.record(CellResult(cell=cell, index=i, run=run, source="journal"))
        else:
            sweep.record(CellResult(cell=cell, index=i, run=run, source="cache"), key)

    if jobs == 1 and policy.wall_timeout_s is None:
        _run_serial(work, cache_dir, sweep)
    else:
        _run_parallel(work, jobs, cache_dir, sweep)

    results = [sweep.results[i] for i in range(len(cells))]
    return results, ExecutionReport.of(
        results,
        jobs=jobs,
        cached=cache_dir is not None,
        wall_time_s=time.perf_counter() - start,
        cache_errors=sweep.cache_errors,
    )

