"""Report helpers: effort parsing, fault-policy flags, and the small
formatting/exit utilities shared by the figure CLIs.

Graceful degradation contract (every figure CLI follows it): a cell that
fails after retries renders as a ``FAILED(<ErrorType>)`` table entry, the
partial table still prints, and the process exits with
:data:`EXIT_CELL_FAILURE` (3) — distinct from argparse's 2 and from a
crash's traceback — so calling scripts can tell "the figure is partially
missing" apart from "the tool is broken".
"""

from __future__ import annotations

import argparse

from repro.experiments.parallel import FaultPolicy
from repro.experiments.runner import Effort
from repro.noc.topology import TOPOLOGY_KINDS
from repro.util.errors import ConfigError

__all__ = [
    "EXIT_CELL_FAILURE",
    "add_common_args",
    "parse_common",
    "parse_effort",
    "finish",
]

#: process exit code when one or more cells failed but the (partial)
#: figure was still rendered
EXIT_CELL_FAILURE = 3


def parse_effort(name: str) -> Effort:
    """Map a CLI string to an :class:`Effort`."""
    try:
        return Effort[name.upper()]
    except KeyError:
        raise SystemExit(
            f"unknown effort {name!r}; choose from "
            f"{[e.name.lower() for e in Effort]}"
        ) from None


def at_least_one(noun: str):
    """The argparse ``type=`` of a count of at least one ``noun`` (``--seeds N``,
    ``--jobs N``)."""

    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"need at least one {noun}, got {value}")
        return value

    return integer


def add_common_args(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Install the flag block shared by every figure CLI and ``run_all``.

    One definition for ``--effort/--seed/--seeds/--jobs/--cache/--max-attempts/
    --timeout/--obs/--obs-sample-period/--topology/--guard/
    --service/--priority/--version`` — the nine figure CLIs (through
    :func:`repro.experiments.cellplan.figure_main`) and ``run_all`` are
    the only parsers, so a new execution-policy flag lands on both by
    being added here once. Parse with :func:`parse_common`.
    """
    from repro._version import version_blurb

    parser.add_argument(
        "--effort",
        default="medium",
        type=str.lower,
        choices=[e.name.lower() for e in Effort],
        help="window scale: smoke, fast, medium (default), full (paper-size)",
    )
    parser.add_argument("--seed", type=int, default=42, help="master RNG seed")
    parser.add_argument(
        "--seeds",
        type=at_least_one("seed"),
        default=None,
        metavar="N",
        help="replicate every cell over the N seeds seed, seed+1, ...: value "
        "columns become across-seed means with 95%% CI half-widths, and "
        "run_all gives each paper claim its verdict (default: one seed, "
        "the plain table)",
    )
    parser.add_argument(
        "--jobs",
        type=at_least_one("job"),
        default=1,
        help="worker processes for independent cells (default 1 = serial; "
        "results are bit-identical either way)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="result-cache directory; already-computed cells are reused and "
        "interrupted sweeps resume from their journal",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="attempts per cell for transient failures (default 3)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per cell, enforced by killing the wedged "
        "worker (cells run in worker processes at any job count)",
    )
    parser.add_argument(
        "--obs",
        default=None,
        metavar="DIR",
        help="record observability streams (per-class latency percentiles, "
        "DPA timelines, link utilization) as one JSONL file per cell in "
        "DIR; inspect with 'python -m repro.obs.report'",
    )
    parser.add_argument(
        "--topology",
        default="mesh",
        choices=TOPOLOGY_KINDS,
        help="fabric to run on: mesh (default, the paper's 8x8), torus, or "
        "ring; wrap fabrics get dateline escape VCs sized automatically",
    )
    parser.add_argument(
        "--obs-sample-period",
        type=int,
        default=64,
        metavar="CYCLES",
        help="cycles between observability samples (default 64; "
        "requires --obs)",
    )
    parser.add_argument(
        "--guard",
        default="off",
        choices=("off", "sample", "strict"),
        help="runtime invariant guard: 'sample' checks conservation "
        "invariants periodically, 'strict' checks often with a deeper "
        "crash blackbox; either classifies stalls as "
        "deadlock/livelock/starvation with forensics (default off — "
        "zero overhead, bit-identical results either way)",
    )
    parser.add_argument(
        "--service",
        default=None,
        metavar="URL",
        help="route the sweep through a running sweep-service daemon "
        "(python -m repro.service.daemon) at URL instead of executing "
        "locally; results, cache keys, and obs output are identical "
        "either way",
    )
    parser.add_argument(
        "--priority",
        default="normal",
        choices=("high", "normal", "low"),
        help="priority class for the submitted job (requires --service; "
        "FIFO within a class, higher classes scheduled first)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=version_blurb(),
        help="print repro version and git revision, then exit",
    )
    return parser


def parse_common(
    parser: argparse.ArgumentParser, argv=None
) -> tuple[argparse.Namespace, dict]:
    """Parse ``argv``; return it with the shared run() keyword arguments the
    :func:`add_common_args` flags describe.

    ``topology``, the ``seeds`` axis (``None`` without ``--seeds``) and the
    engine's own keywords (``jobs``, ``cache``, ``policy``, ``service``),
    assembled in this one place so no CLI can drift. The one
    :class:`~repro.experiments.parallel.FaultPolicy` carries all four
    per-attempt settings. Its ``obs``/``guard`` and ``service`` are
    ``None`` unless asked for (the overhead-free defaults), and their
    packages are imported only then. Guard blackboxes land next to the obs
    streams when ``--obs`` was given, otherwise they stay in memory on the
    raised error. A value the policy objects refuse (their bounds live
    there only) is a usage error like any other bad flag: exit 2 with
    their message, before anything runs.
    """
    args = parser.parse_args(argv)
    obs = guard = service = None
    try:
        if args.obs is not None:
            from repro.obs.collector import ObsConfig

            obs = ObsConfig(dir=args.obs, sample_period=args.obs_sample_period)
        if args.guard != "off":
            from repro.noc.guard import GuardConfig

            guard = GuardConfig(mode=args.guard, dir=args.obs)
        if args.service is not None:
            from repro.service.client import ServiceSpec

            service = ServiceSpec(url=args.service, priority=args.priority)
        policy = FaultPolicy(
            max_attempts=args.max_attempts,
            wall_timeout_s=args.timeout,
            obs=obs,
            guard=guard,
        )
    except ConfigError as exc:
        parser.error(str(exc))
    return args, {
        "jobs": args.jobs,
        "cache": args.cache,
        "policy": policy,
        "topology": args.topology,
        "service": service,
        "seeds": args.seeds and [args.seed + i for i in range(args.seeds)],
    }


def finish(result) -> int:
    """Print a figure result and return the CLI exit code.

    ``result`` is a :class:`~repro.experiments.runner.FigureResult` whose
    failed cells have already been rendered into the rows; this decides
    the exit code from ``result.metrics['failures']`` and prints the
    failure summary line so it cannot be missed below a long table.
    """
    print(result.format_table())
    failures = result.metrics.get("failures", 0)
    if failures:
        print(
            f"WARNING: {failures} cell(s) failed after retries; "
            "table above is partial (FAILED entries)."
        )
        return EXIT_CELL_FAILURE
    return 0
