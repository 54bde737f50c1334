"""Ops CLI for the sweep service: ``python -m repro.service.submit``.

Subcommands (all take ``--service URL``, where URL is the daemon's
``http://host:port`` base or its ``--store`` directory)::

    health                  daemon liveness, queue depths, version
    list                    all jobs the daemon knows about
    show JOB                one job's status (state, progress, position)
    watch JOB               tail a job's result stream until it ends
    cancel JOB              cancel a queued job
    pause / resume          hold or release dispatch
    run EXPERIMENT          run a figure/ablation through the service and
                            render its table, e.g.::

        python -m repro.service.submit --service http://127.0.0.1:8642 \\
            run fig10_routing --effort smoke --priority high

``run`` takes every flag the figure CLIs take (its sub-parser is built
from the same :func:`~repro.experiments.report.add_common_args`) and goes
through the same :func:`~repro.experiments.cellplan.run_from_args`, so
``submit --service U run X <flags>`` is the invocation
``python -m repro.experiments.X --service U <flags>``: the sweep
executes remotely, the table renders locally, and the output is
identical to the direct CLI because the service path is bit-identical
by construction.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from repro._version import version_blurb
from repro.experiments.parallel import CellResult, ExecutionReport
from repro.experiments.report import add_common_args
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import ProtocolError, decode_as

__all__ = ["main"]


def _dump(obj) -> None:
    try:
        print(json.dumps(obj, indent=2, sort_keys=True))
    except BrokenPipeError:  # e.g. piped into head; not an error
        pass


def _watch(client: ServiceClient, job_id: str) -> int:
    state = "unknown"
    for rec in client.stream_results(job_id):
        kind = rec.get("kind")
        if kind == "cell":
            res = decode_as(rec.get("result"), CellResult)
            label = "ok" if res.ok else "FAILED"
            extra = " (cache hit)" if res.cache_hit else ""
            print(f"cell {rec.get('index')}: {label}{extra}", flush=True)
        elif kind == "job_end":
            state = rec.get("state", "unknown")
            print(f"job {job_id}: {state}", flush=True)
            if rec.get("error"):
                print(f"  error: {rec['error']}", flush=True)
            if rec.get("report"):
                report = decode_as(rec["report"], ExecutionReport)
                print(f"  report: {json.dumps(asdict(report), sort_keys=True)}")
    return 0 if state == "done" else 1


def _run_experiment(args) -> int:
    from repro.experiments.cellplan import run_from_args
    from repro.experiments.run_all import EXPERIMENTS

    module = EXPERIMENTS.get(args.experiment)
    if module is None:
        print(
            f"unknown experiment {args.experiment!r}; known: "
            f"{sorted(n for n in EXPERIMENTS if n != 'table1')}",
            file=sys.stderr,
        )
        return 2
    if args.experiment == "table1":
        print("table1 is analytic (no sweep); run it directly", file=sys.stderr)
        return 2
    return run_from_args(module.run, args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.submit",
        description="Submit to and inspect a running repro sweep service.",
    )
    parser.add_argument(
        "--service",
        required=True,
        metavar="URL",
        help="daemon base URL (http://host:port) or its --store directory",
    )
    parser.add_argument(
        "--version", action="version", version=version_blurb("repro-submit")
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("health", help="daemon liveness and queue depths")
    sub.add_parser("list", help="list all jobs")
    for name, help_text in (
        ("show", "one job's status"),
        ("watch", "tail a job's result stream"),
        ("cancel", "cancel a queued job"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("job", help="job id, e.g. j000001")
    sub.add_parser("pause", help="hold dispatch (queued jobs wait)")
    sub.add_parser("resume", help="release dispatch")

    run_p = sub.add_parser(
        "run",
        help="run a figure/ablation through the service",
        conflict_handler="resolve",
    )
    run_p.add_argument("experiment", help="experiment name (see run_all)")
    add_common_args(run_p)
    # The daemon address is the top-level (required) --service. argparse
    # copies every sub-parser attribute over the top-level namespace, so
    # the sub-parser's copy is re-declared without a default.
    run_p.add_argument("--service", default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _run_experiment(args)
        client = ServiceClient(args.service)
        if args.command == "health":
            _dump(client.health())
        elif args.command == "list":
            _dump(client.jobs())
        elif args.command == "show":
            _dump(client.job(args.job))
        elif args.command == "watch":
            return _watch(client, args.job)
        elif args.command == "cancel":
            _dump(client.cancel(args.job))
        elif args.command == "pause":
            _dump(client.pause())
        elif args.command == "resume":
            _dump(client.resume())
        return 0
    except (ServiceError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
