"""Ops CLI for the sweep service: ``python -m repro.service.submit``.

Subcommands (all take ``--service URL``, where URL is the daemon's
``http://host:port`` base or its ``--store`` directory)::

    health                  daemon liveness, queue depths, version
    list                    all jobs the daemon knows about
    show JOB                one job's status (state, progress, position)
    watch JOB               tail a job's result stream until it ends
    cancel JOB              cancel a queued job
    pause / resume          hold or release dispatch

A figure runs through the daemon from its own CLI, e.g.
``python -m repro.experiments.fig10_routing --service URL --priority high``:
the sweep executes remotely and the table renders locally, identical to
the direct run.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from repro._version import version_blurb
from repro.experiments.parallel import CellResult, ExecutionReport
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
            print(f"cell {rec.get('index')}: {label} ({res.source})", flush=True)
        elif kind == "job_end":
            state = rec.get("state", "unknown")
            print(f"job {job_id}: {state}", flush=True)
            if rec.get("error"):
                print(f"  error: {rec['error']}", flush=True)
            if rec.get("report"):
                report = decode_as(rec["report"], ExecutionReport)
                print(f"  report: {json.dumps(asdict(report), sort_keys=True)}")
    return 0 if state == "done" else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.submit",
        description="Inspect and control a running repro sweep service "
        "(figures are submitted by their own CLIs' --service).",
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

    args = parser.parse_args(argv)
    try:
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
