"""``python -m repro.obs.report`` — validate and summarize obs streams.

Default mode renders a compact human-readable digest of each stream
(after validating it); ``--check`` validates only, printing one ``OK``
line per file — that is what the CI obs smoke lane runs. ``--csv DIR``
additionally flattens each stream to CSV via
:func:`repro.obs.exporters.export_csv`.

Exit status: 0 when every file validates, 1 when any fails.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.schema import ObsSchemaError, load_jsonl, validate_stream

__all__ = ["main", "render_blackbox", "render_summary"]


def _fmt(v) -> str:
    return f"{v:.2f}" if isinstance(v, float) else str(v)


def render_blackbox(path: str, records: list[dict], counts: dict) -> str:
    """Human-readable digest of one validated guard-blackbox stream."""
    header = records[0]
    violation = records[-1]
    lines = [
        f"{path}",
        f"  {header['width']}x{header['height']} {header['topology']}, "
        f"schema v{header['schema']}, guard {header['mode']!r}, "
        f"run {header['name']!r}",
        f"  VIOLATION at cycle {violation['cycle']}: {violation['reason']}",
        f"    {violation['message']}",
        f"  state: {violation['buffered_total']} flit(s) buffered, "
        f"{violation['packets_in_flight']} packet(s) in flight, "
        f"{violation['queued']} queued; "
        f"{counts.get('router_snapshot', 0)} router snapshot(s)",
    ]
    ring = violation["ring"]
    if ring:
        lines.append(f"  wait cycle ({len(ring)} VCs):")
        for hop in ring:
            lines.append(
                f"    node {hop['node']} port {hop['port']} vc {hop['vc']} "
                f"[{hop['state']}, pkt #{hop['pid']} -> {hop['dst']}, "
                f"esc_cls {hop['escape_class']}]"
            )
    events = [r for r in records if r.get("kind") == "guard_event"]
    if events:
        by_event: dict[str, int] = {}
        for rec in events:
            by_event[rec["event"]] = by_event.get(rec["event"], 0) + 1
        mix = ", ".join(f"{k}={v}" for k, v in sorted(by_event.items()))
        lines.append(
            f"  blackbox: last {len(events)} kernel events "
            f"(cycles {events[0]['cycle']}..{events[-1]['cycle']}): {mix}"
        )
    return "\n".join(lines)


def render_summary(path: str, records: list[dict], counts: dict) -> str:
    """Human-readable digest of one validated stream (either flavour)."""
    if records[0].get("kind") == "guard_header":
        return render_blackbox(path, records, counts)
    header = records[0]
    summary = records[-1]
    lines = [
        f"{path}",
        # Streams written before the header named its fabric are meshes.
        f"  {header['width']}x{header['height']} {header.get('topology', 'mesh')}, "
        f"schema v{header['schema']}, run {header['name']!r}",
        f"  cycles {header['start_cycle']}..{summary['cycle']}, "
        f"{summary['samples']} samples every {header['sample_period']} cycles, "
        f"{summary['events']} events",
    ]

    lat = [r for r in records if r.get("kind") == "latency_class"]
    if lat:
        lines.append("  latency (cycles):")
        lines.append(
            "    {:<8} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8}".format(
                "class", "count", "mean", "p50", "p95", "p99", "max"
            )
        )
        for rec in lat:
            if rec["count"] == 0:
                lines.append(f"    {rec['cls']:<8} {0:>7}")
                continue
            lines.append(
                "    {:<8} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8}".format(
                    rec["cls"],
                    rec["count"],
                    _fmt(rec["mean"]),
                    _fmt(rec["p50"]),
                    _fmt(rec["p95"]),
                    _fmt(rec["p99"]),
                    _fmt(rec["max"]),
                )
            )

    flips = summary["dpa_flips"]
    by_node: dict[int, int] = {}
    for rec in records:
        if rec.get("kind") == "dpa_flip":
            by_node[rec["node"]] = by_node.get(rec["node"], 0) + 1
    line = f"  dpa: {flips} priority flips"
    if by_node:
        top = sorted(by_node.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        line += " (top nodes: " + ", ".join(f"{n}:{c}" for n, c in top) + ")"
    lines.append(line)

    util = summary["link_util"]
    lines.append(
        f"  links: mean {util['mean']:.3f} flits/cycle, "
        f"max {util['max']:.3f} at node {util['max_node']} port {util['max_port']}"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Validate and summarize observability JSONL streams.",
    )
    parser.add_argument("paths", nargs="+", help="JSONL file(s) to read")
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate against the schema only (CI mode); no summary output",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also export each stream's time series to CSV files in DIR",
    )
    args = parser.parse_args(argv)

    status = 0
    for path in args.paths:
        try:
            records = load_jsonl(path)
            counts = validate_stream(records)
        except (OSError, ObsSchemaError) as exc:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
            status = 1
            continue
        if args.check:
            kinds = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            print(f"OK {path}: {sum(counts.values())} records ({kinds})")
        else:
            print(render_summary(path, records, counts))
        if args.csv:
            from repro.obs.exporters import export_csv

            for out in export_csv(path, args.csv):
                print(f"  wrote {out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
