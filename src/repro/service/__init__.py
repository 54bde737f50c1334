"""repro.service — simulation-as-a-service for experiment sweeps.

The batch CLIs under :mod:`repro.experiments` run one sweep and exit. This
package turns the same execution engine into a long-lived local service:

* :mod:`repro.service.daemon` — a daemon on the stdlib HTTP server
  (``python -m repro.service.daemon``) that owns the worker processes and
  exposes a localhost HTTP+JSONL API for submitting sweep jobs; its job
  table is the queue (``high``/``normal``/``low``, FIFO within a class,
  bounded with 429-style backpressure),
* :mod:`repro.service.jobstore` — a durable append-only job journal and
  per-job result streams (same torn-write-tolerant framing as
  :class:`~repro.experiments.cache.SweepJournal`), crash-recoverable on
  daemon restart,
* :mod:`repro.service.protocol` — the schema-versioned JSON wire format
  (job and stream records whose every repro object is the payload form
  of the cache's codec, :func:`repro.experiments.cache.encode_value`),
* :mod:`repro.service.client` — the thin blocking client every figure CLI
  routes through via ``--service URL``, plus
  ``python -m repro.service.submit`` for ops (health, list, show,
  watch, cancel, pause, resume).

The invariant the whole package is built around: a sweep submitted
through the service is **bit-identical** to the same sweep run directly —
same cells, same cache keys (hits shared both ways), same
:class:`~repro.experiments.parallel.FaultPolicy` semantics, byte-identical
obs JSONL — because the daemon executes the unmodified
:func:`~repro.experiments.parallel.run_cells_detailed`. See
``docs/SERVICE.md`` for the API and lifecycle.
"""

from repro.service.client import ServiceClient, ServiceError, ServiceSpec
from repro.service.protocol import PRIORITIES, PROTOCOL_VERSION, JobRecord

__all__ = [
    "PRIORITIES",
    "PROTOCOL_VERSION",
    "JobRecord",
    "ServiceClient",
    "ServiceError",
    "ServiceSpec",
]
