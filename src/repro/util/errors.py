"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the package raises with one handler while still letting
programming errors (``TypeError``, ``AttributeError``...) propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError, ValueError):
    """An invalid or inconsistent configuration value was supplied."""


class ProtocolError(ReproError, ValueError):
    """A payload read from disk or the wire is malformed, unsupported, or
    names a type outside the ``repro`` package."""


class SimulationError(ReproError, RuntimeError):
    """The simulator reached an internal inconsistency.

    This is raised on invariant violations (e.g. negative credits, a flit
    sent from an empty buffer), which indicate a bug in the simulator or a
    corrupted external mutation of its state, and when a simulation is
    driven again after :meth:`~repro.noc.sim.Simulator.close`.
    """


class GuardError(SimulationError):
    """A stall or invariant violation, with its reason.

    Raised by the simulator's watchdog (``reason="watchdog"``) when no
    guard is installed, and by :class:`repro.noc.guard.RuntimeGuard`,
    which classifies stalls and checks conservation invariants.
    Subclassing ``SimulationError`` keeps the failure non-retryable in the
    fault-tolerant experiment engine — a trip is deterministic for a
    given cell.

    Attributes
    ----------
    reason:
        ``watchdog`` / ``deadlock`` / ``livelock`` / ``starvation`` (a
        stall: in the drain phase it becomes
        :attr:`MeasurementResult.abort`), or ``credit_conservation`` /
        ``flit_conservation`` / ``packet_conservation`` /
        ``pool_safety`` / ``dateline`` (a violation: it always fails the
        run).
    failure_label:
        CamelCase form the experiment layer renders as
        ``FAILED(<label>)`` (e.g. ``Deadlock``).
    blackbox_path:
        Where the crash-blackbox JSONL was written, or ``None`` when the
        guard had no output directory (the forensics then live only on
        the guard object / in this message).
    """

    def __init__(
        self,
        message: str,
        reason: str,
        label: str | None = None,
        blackbox_path: str | None = None,
    ):
        super().__init__(message)
        self.reason = reason
        self.failure_label = label or reason.title().replace("_", "")
        self.blackbox_path = blackbox_path


class TrafficError(ReproError, ValueError):
    """A traffic generator was asked for something it cannot produce."""
