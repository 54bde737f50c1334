"""Self-tests of the ladder: ``PYTHONPATH=src python -m pytest benchmarks/ladder -q``.

They check the benchmark, not the simulator: that BENCHMARK.json keeps to
the driver's contract, that every declared metric comes out exactly once
per workload, that the externally driven loop is the simulator's loop,
and that the shape checker counts what it says it counts.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from benchmarks.ladder import child, fidelity, run, workloads
from benchmarks.ladder.adapter import (
    NocConfig,
    SyntheticTrafficSource,
    UniformPattern,
    build_simulation,
)
from benchmarks.ladder.child import WORKLOADS
from benchmarks.ladder.layers import until
from benchmarks.ladder.traced import CountingTrace, TracedLoop
from repro.core.regions import RegionMap
from repro.noc.topology import make_topology

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = run.load_spec()


def test_benchmark_json_keeps_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ladder"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_declared_metric(workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = run.run_workload(workload, 5, seconds=0.0, trace=trace, smoke=True)
        assert result["correct"], result["checks"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def _small_sim(policy: str, routing: str, trace=None):
    cfg = NocConfig(width=4, height=4)
    sim, net = build_simulation(
        cfg, scheme=policy, routing=routing, trace=trace,
        region_map=RegionMap.halves(make_topology(cfg)),
    )
    sim.add_traffic(SyntheticTrafficSource(
        nodes=range(cfg.num_nodes), rate=0.25, pattern=UniformPattern(net.topology),
        app_id=0, seed=3,
    ))
    # A second, sparse source so idle gaps (and fast-forward) occur too.
    sim.add_traffic(SyntheticTrafficSource(
        nodes=(0,), rate=0.02, pattern=UniformPattern(net.topology), app_id=1,
        seed=4, start=900,
    ))
    return sim, net


def _state(cycle, net, window):
    stats = net.stats
    return workloads.plain([
        cycle, net.flits_moved, net.packets_ejected, net.window_injected,
        net.window_ejected, stats.packet_count(window=window),
        stats.apl(window=window), sorted(stats.per_app_apl(window=window).items()),
    ])


@pytest.mark.parametrize("routing", ["xy", "local", "dbar"])
@pytest.mark.parametrize("policy", ["rr", "stc", "rair"])
def test_traced_loop_is_the_simulators_loop(policy, routing):
    sim, net = _small_sim(policy, routing)
    res = sim.run_measurement(warmup=100, measure=300, drain_limit=5000)
    sim.run(1500 - sim.cycle)
    expected = _state(sim.cycle, net, res.window)

    trace = CountingTrace()
    sim2, net2 = _small_sim(policy, routing, trace)
    loop = TracedLoop(sim2, net2)
    window = loop.run_measurement(100, 300, 5000, end_cycle=1500)
    assert _state(loop.cycle, net2, window) == expected
    assert trace.flit_sends == net2.flits_moved
    assert loop.counts["stepped_cycles"] + loop.counts["ff_cycles_skipped"] == 1500
    assert 0.0 < loop.covered_s() <= loop.wall_s()


def test_traced_loop_fast_forwards_like_the_simulator():
    sim, net = workloads.build_kernel(workloads.CORNER_TRICKLE_SMOKE, seed=9)
    sim.run(20_000)
    sim2, net2 = workloads.build_kernel(workloads.CORNER_TRICKLE_SMOKE, seed=9)
    loop = TracedLoop(sim2, net2)
    loop.run_to(20_000)
    assert (loop.counts["ff_jumps"], loop.counts["ff_cycles_skipped"]) == (
        sim.metrics.ff_jumps, sim.metrics.ff_cycles_skipped)
    assert loop.counts["ff_cycles_skipped"] > 10_000
    assert net2.flits_moved == net.flits_moved


def _rows(changes=()):
    rows = {
        ("fig09", "RO_RR"): 30.0, ("fig09", "RAIR_VA"): 29.0,
        ("fig09", "RAIR_VA+SA"): 28.0,
        ("fig12a", "RAIR_NativeH"): 0.01, ("fig12a", "RAIR_ForeignH"): 0.05,
        ("fig12a", "RAIR_DPA"): 0.04,
        ("fig12b", "RAIR_NativeH"): 0.06, ("fig12b", "RAIR_ForeignH"): 0.02,
        ("fig12b", "RAIR_DPA"): 0.06,
        ("fig14", "RA_RAIR"): 0.10, ("fig14", "RO_Rank"): 0.06,
        ("fig14", "RA_DBAR"): 0.03,
        ("fig17", "RO_RR"): 1.9, ("fig17", "RO_Rank"): 1.5, ("fig17", "RA_RAIR"): 1.2,
    }
    rows.update(dict(changes))
    return rows


def test_shape_checker_counts_orderings():
    assert len(fidelity.ORDERINGS) == 11
    assert fidelity.shape_agreement(_rows()) == (1.0, [])
    # DPA more than the slack below the better static priority: one ordering.
    share, broken = fidelity.shape_agreement(_rows({("fig12a", "RAIR_DPA"): 0.01}))
    assert (share, broken) == (10 / 11, ["fig12a DPA near best"])
    # RO_Rank above RA_RAIR in Fig. 14 breaks one ordering, not RA_RAIR > 0.
    share, broken = fidelity.shape_agreement(_rows({("fig14", "RO_Rank"): 0.2}))
    assert share == 10 / 11 and broken == ["fig14 RA_RAIR > RO_Rank"]


def test_failed_cell_does_not_hold_and_is_a_failed_op():
    # A FAILED row takes every ordering that reads it with it.
    share, broken = fidelity.shape_agreement(_rows({("fig17", "RO_Rank"): "FAILED"}))
    assert share == 9 / 11
    assert broken == ["fig17 RO_RR > RO_Rank", "fig17 RO_Rank > RA_RAIR"]
    # figure_rows turns a missing cell into FAILED rows for all that depend on it.
    run_ok = SimpleNamespace(per_app_apl={0: 20.0, 1: 30.0},
                             reduction_vs=lambda base, app: 0.05)
    runs = {("fig14", s): run_ok for s in ("RO_RR", "RO_Rank", "RA_RAIR")}
    rows = fidelity.figure_rows(runs)
    assert rows[("fig14", "RA_RAIR")] == pytest.approx(0.05)
    assert rows[("fig14", "RA_DBAR")] == "FAILED"
    runs[("fig14", "RO_RR")] = None
    assert fidelity.figure_rows(runs)[("fig14", "RA_RAIR")] == "FAILED"
    # And the engine-level count: a FAILED cell and an undrained run both fail.
    good = SimpleNamespace(abort=None, drained=True, undrained_packets=0,
                           packets_measured=10)
    stuck = SimpleNamespace(abort="drain_limit", drained=False, undrained_packets=3,
                            packets_measured=10)
    results = [
        SimpleNamespace(ok=True, run=good),
        SimpleNamespace(ok=True, run=stuck),
        SimpleNamespace(ok=False, cell=SimpleNamespace(describe=lambda: "cell"),
                        failure=SimpleNamespace(summary=lambda: "Deadlock")),
    ]
    assert workloads.cells_failed(results) == 2


def test_traced_run_reports_a_failed_untraced_op(monkeypatch):
    def boom(params, seed):
        raise RuntimeError("untraced op failed")

    monkeypatch.setattr(workloads, "kernel_op", boom)
    out = child._traced_kernel("busy-uniform", workloads.BUSY_UNIFORM, 5, 0.0)
    assert (out["attempted"], out["failed"]) == (2, 1)
    assert out["layers"]["trace_overhead_ratio"] == 0.0
    assert not out["checks"]["traced_digest_equals_untraced"]


def test_repeats_stop_at_the_deadline_but_run_once():
    assert until(deadline=0.0, most=50, fn=lambda: 1) == [1]
    assert until(deadline=float("inf"), most=3, fn=lambda: 1) == [1, 1, 1]


def test_exits_nonzero_without_a_simulator(tmp_path):
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "ladder",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ladder/run.py", "--workload", "busy-uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_result_line_has_exactly_the_contract_keys(capsys, monkeypatch):
    fake = {"correct": True, "attempted": 1, "failed": 0, "metrics": {},
            "sim_digest": "x", "checks": {}, "samples": {"operations": 1,
                                                         "subprocesses": 1}}
    monkeypatch.setattr(run, "run_workload", lambda *a, **k: fake)
    assert run.main(["--workload", "busy-uniform", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert set(json.loads(last)) == {"correct", "attempted", "failed", "metrics"}
