"""Run one ladder workload and print its metrics — the command in BENCHMARK.json.

``python3 benchmarks/ladder/run.py --workload W --seed N --seconds S --trace 0|1``

With ``--trace 0`` the time budget is split over ``CHILDREN`` fresh
subprocesses; each sets up, then repeats the workload's operation until
its share is spent. ``wall_s`` is the fastest time seen for each step of
the operation (each cell, then the rest of the call; a kernel run is one
step), summed, and ``sim_cycles_per_s`` the operation's cycles over it:
all of a run's operations simulate the same work (their digests are
checked to be identical), so what differs between them is the machine,
and other tenants only ever slow it down.
``setup_s`` and ``peak_rss_mb`` are medians over the subprocesses. With
``--trace 1`` one subprocess runs
the traced pass and the per-layer metrics come back instead. The last
line of standard output is the result as one JSON object; the readable
report goes to standard error.

This file imports nothing but the standard library, so what a child
reports as set-up time is the simulator's import and build cost alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
CHILDREN = 4  # fresh subprocesses per untraced run: four set-ups, four peaks
CHILD_TIMEOUT_S = 170.0


def load_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def sim_digest(digest: str) -> str:
    """Short hash of a simulated digest, for diffing parent and change by eye."""
    return hashlib.sha256(digest.encode()).hexdigest()[:16]


def _spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(REPO)] + ([extra] if extra else [])
    )
    cmd = [
        sys.executable, "-m", "benchmarks.ladder.child",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--spawned-at", repr(time.monotonic()),
    ] + (["--smoke"] if smoke else [])
    proc = subprocess.run(
        cmd, cwd=REPO, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: subprocess exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> dict:
    """One run: the contract's result object plus ``sim_digest`` and ``checks``."""
    spec = load_spec()
    if trace:
        outs = [_spawn(workload, seed, seconds, 1, smoke)]
    else:
        n = 1 if smoke else CHILDREN
        outs = [_spawn(workload, seed, seconds / n, 0, smoke) for _ in range(n)]
    digests = sorted({d for out in outs for d in out["digests"]})
    checks = {"digest_identical_across_repeats": len(digests) == 1}
    for out in outs:
        checks.update(out.get("checks", {}))
    attempted = sum(out["attempted"] for out in outs)
    failed = sum(out["failed"] for out in outs)
    if trace:
        values = _layer_values(spec, outs[0]["layers"])
        declared = spec["per_layer"]
    else:
        values = _end_to_end_values(outs)
        declared = spec["end_to_end"]
    return {
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "sim_digest": sim_digest(digests[0]) if len(digests) == 1 else "MISMATCH",
        "checks": checks,
        "samples": {"operations": sum(len(out["parts"]) for out in outs),
                    "subprocesses": len(outs)},
    }


def _end_to_end_values(outs: list[dict]) -> dict[str, float]:
    parts = [p for out in outs for p in out["parts"]]
    if not parts:
        raise RuntimeError("no operation completed, so there is nothing to report")
    # Fastest seen of each step, summed. Same seed, same steps, same cycles.
    wall = sum(min(step) for step in zip(*parts))
    cycles = next(c for out in outs for c in out["cycles"])
    return {
        "sim_cycles_per_s": cycles / wall,
        "wall_s": wall,
        "setup_s": statistics.median(out["setup_s"] for out in outs),
        "peak_rss_mb": statistics.median(out["rss_mb"] for out in outs),
    }


def _layer_values(spec: dict, measured: dict) -> dict[str, float]:
    """Every declared per-layer metric; 0 for a layer this workload never enters."""
    names = [m["name"] for m in spec["per_layer"]]
    unknown = sorted(set(measured) - set(names))
    if unknown:
        raise RuntimeError(f"per-layer metrics not in BENCHMARK.json: {unknown}")
    return {name: measured.get(name, 0) for name in names}


def report(workload: str, result: dict, file=sys.stderr) -> None:
    """Every metric by name with its unit, the digest, and the checks."""
    n = result["samples"]
    print(f"== {workload}: {result['attempted']} operations attempted, "
          f"{result['failed']} failed; {n['operations']} untraced operations "
          f"timed in {n['subprocesses']} subprocess(es)", file=file)
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}", file=file)
    print(f"  sim_digest {result['sim_digest']}", file=file)
    for name, ok in result["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}", file=file)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no simulator to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; known: {names}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(args.workload, result)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
