"""Priority-class job scheduler with bounded-queue admission control.

Scheduling policy (deliberately boring, therefore explainable):

* three priority classes — ``high`` > ``normal`` > ``low``;
* strict priority across classes: a queued high job is always dispatched
  before any queued normal job, regardless of arrival order;
* FIFO within a class: same-class jobs run in submission order;
* no preemption: a running low job is never paused for a late high job
  (cells are short; the high job simply goes first among the *queued*).

Admission control is a single bounded queue across all classes: when
``max_queued`` jobs are already waiting, :meth:`PriorityScheduler.submit`
raises :class:`QueueFull` carrying a ``retry_after_s`` hint, which the
daemon turns into an HTTP 429 + ``Retry-After``. Bounding the queue is
what produces *backpressure* instead of unbounded memory growth — the
same reasoning the NoC applies to VC buffers and credits.

The scheduler is plain synchronous data structures (deques + a dict), so
it unit-tests without a server; the daemon serializes access under its
one state lock.
"""

from __future__ import annotations

import collections

from repro.service.protocol import PRIORITIES, JobRecord
from repro.util.errors import ReproError

__all__ = ["PriorityScheduler", "QueueFull"]


class QueueFull(ReproError):
    """Admission refused: the bounded queue is at capacity (HTTP 429)."""

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class PriorityScheduler:
    """Bounded multi-class FIFO queue of :class:`JobRecord` ids."""

    def __init__(self, max_queued: int = 64, retry_after_s: float = 2.0):
        if max_queued < 1:
            raise ValueError(f"max_queued must be >= 1, got {max_queued}")
        self.max_queued = max_queued
        self.retry_after_s = retry_after_s
        self._queues: dict[str, collections.deque[str]] = {
            p: collections.deque() for p in PRIORITIES
        }
        #: jobs dispatched and not yet reported finished
        self.running: set[str] = set()
        #: dispatch counter (stamped into JobRecord.start_seq)
        self.dispatched = 0

    @property
    def queued(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def submit(self, job: JobRecord) -> int:
        """Enqueue; returns the job's position in its class (0-based).

        Raises :class:`QueueFull` when the global bound is hit — the
        caller maps that to 429 with ``Retry-After``.
        """
        if self.queued >= self.max_queued:
            raise QueueFull(
                f"queue full ({self.queued}/{self.max_queued} jobs waiting); "
                f"retry in {self.retry_after_s:g}s",
                retry_after_s=self.retry_after_s,
            )
        queue = self._queues[job.priority]  # priority validated by JobSpec
        queue.append(job.id)
        return len(queue) - 1

    def requeue(self, job: JobRecord) -> None:
        """Re-admit a recovered job, bypassing the admission bound.

        Jobs in the recovery set were accepted before the restart; the
        bound gates *new* work, and rejecting previously-accepted jobs
        would turn a restart into data loss.
        """
        self._queues[job.priority].append(job.id)

    def next_job(self) -> str | None:
        """Dispatch the next job id (or None): class order, FIFO within."""
        for priority in PRIORITIES:
            queue = self._queues[priority]
            if queue:
                job_id = queue.popleft()
                self.running.add(job_id)
                self.dispatched += 1
                return job_id
        return None

    def finish(self, job_id: str) -> None:
        self.running.discard(job_id)

    def cancel(self, job_id: str) -> bool:
        """Remove a *queued* job; False if it is not waiting (running/done)."""
        for queue in self._queues.values():
            try:
                queue.remove(job_id)
            except ValueError:
                continue
            return True
        return False

    def position(self, job_id: str) -> int | None:
        """Global dispatch distance of a queued job (0 = next), else None."""
        ahead = 0
        for priority in PRIORITIES:
            for queued_id in self._queues[priority]:
                if queued_id == job_id:
                    return ahead
                ahead += 1
        return None

    def snapshot(self) -> dict:
        """Queue depths for health/metrics endpoints."""
        return {
            "queued": self.queued,
            "running": len(self.running),
            "max_queued": self.max_queued,
            "by_priority": {p: len(q) for p, q in self._queues.items()},
            "dispatched": self.dispatched,
        }
