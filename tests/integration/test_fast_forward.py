"""Idle-cycle fast-forward: bit-identity against naive per-cycle ticking.

The fast-forward optimisation must be *invisible* in every observable:
``MeasurementResult`` fields, per-packet statistics, policy state after
idle-gap boundary replay, and the observability JSONL byte stream. Each
test runs the same workload twice — fast-forward on (the default) and
naive (via the ``REPRO_DISABLE_FAST_FORWARD`` escape hatch or the
constructor flag) — and asserts equality, plus that the fast path
actually engaged where the workload has idle gaps (otherwise these tests
would vacuously compare naive against naive).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.arbitration.base import ArbitrationPolicy
from repro.arbitration.stc import StcPolicy
from repro.experiments.parallel import (
    Cell,
    FaultPolicy,
    cell_obs_name,
    run_cells_detailed,
)
from repro.experiments.runner import SCHEMES, Effort
from repro.experiments.scenarios import two_app_msp
from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.noc.sim import Simulator
from repro.noc.topology import MeshTopology
from repro.obs import ObsConfig
from repro.routing import make_routing
from repro.traffic.patterns import UniformPattern
from repro.traffic.synthetic import FixedLength, SyntheticTrafficSource
from repro.traffic.trace import TraceTrafficSource, capture_trace

SEEDS = (11, 12, 13)


def _trickle_sim(fast_forward, policy=None, routing="xy", rate=0.05, seed=11):
    """Two corner sources on an 8x8 mesh — mostly idle at low rates."""
    cfg = NocConfig(width=8, height=8, vc_depth=8, max_packet_flits=8)
    net = Network(cfg, make_routing(routing), policy or ArbitrationPolicy())
    topo = MeshTopology(8, 8)
    source = SyntheticTrafficSource(
        nodes=[0, 63],
        rate=rate,
        pattern=UniformPattern(topo),
        app_id=0,
        seed=seed,
        lengths=FixedLength(8),
    )
    return Simulator(net, [source], fast_forward=fast_forward), net, source


def _observables(sim, net, source, result):
    return {
        "window": result.window,
        "end_cycle": result.end_cycle,
        "drained": result.drained,
        "abort": result.abort,
        "latencies": tuple(net.stats.latencies(window=result.window).tolist()),
        "hops": tuple(net.stats._hops),
        "ejected": net.stats.packets_ejected,
        "injected": source.packets_injected,
        "flits": source.flits_injected,
        "flits_moved": net.flits_moved,
        "app_flits": dict(net.app_flits_injected),
    }


class TestBitIdentity:
    def test_trickle_identical_and_ff_engages(self):
        runs = {}
        for ff in (True, False):
            sim, net, source = _trickle_sim(ff)
            result = sim.run_measurement(warmup=300, measure=1500)
            runs[ff] = (_observables(sim, net, source, result), result.metrics)
        assert runs[True][0] == runs[False][0]
        # The optimisation must actually fire on this workload...
        assert runs[True][1].ff_jumps > 0
        assert runs[True][1].ff_cycles_skipped > 0
        # ...and never in the naive arm.
        assert runs[False][1].ff_jumps == 0
        assert runs[False][1].ff_cycles_skipped == 0

    @pytest.mark.parametrize("routing", ["xy", "duato", "dbar"])
    def test_identical_across_routing_algorithms(self, routing):
        obs = {}
        for ff in (True, False):
            sim, net, source = _trickle_sim(ff, routing=routing)
            result = sim.run_measurement(warmup=200, measure=800)
            obs[ff] = _observables(sim, net, source, result)
        assert obs[True] == obs[False]

    def test_env_var_disables_fast_forward(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_FAST_FORWARD", "1")
        sim, _, _ = _trickle_sim(fast_forward=None)
        assert sim.fast_forward is False
        monkeypatch.delenv("REPRO_DISABLE_FAST_FORWARD")
        sim, _, _ = _trickle_sim(fast_forward=None)
        assert sim.fast_forward is True

    def test_trace_replay_identical(self):
        topo = MeshTopology(8, 8)
        gen = SyntheticTrafficSource(
            nodes=[0, 63],
            rate=0.05,
            pattern=UniformPattern(topo),
            app_id=0,
            seed=7,
            lengths=FixedLength(5),
        )
        trace = capture_trace([gen], cycles=600)
        assert len(trace) > 0
        obs = {}
        for ff in (True, False):
            cfg = NocConfig(width=8, height=8, vc_depth=8, max_packet_flits=8)
            net = Network(cfg, make_routing("xy"), ArbitrationPolicy())
            source = TraceTrafficSource(trace)
            sim = Simulator(net, [source], fast_forward=ff)
            result = sim.run_measurement(warmup=100, measure=700)
            obs[ff] = (
                {
                    "window": result.window,
                    "end_cycle": result.end_cycle,
                    "drained": result.drained,
                    "latencies": tuple(
                        net.stats.latencies(window=result.window).tolist()
                    ),
                    "ejected": net.stats.packets_ejected,
                    "injected": source.packets_injected,
                },
                result.metrics.ff_jumps,
            )
        assert obs[True][0] == obs[False][0]
        assert obs[True][1] > 0


class TestPolicyBoundaryReplay:
    """Policies with per-interval state must see identical boundaries.

    The workload injects until a stop cycle, goes fully idle across
    several policy boundaries (rank intervals / QoS frames), then a second
    source resumes — so the idle gap's boundary replay feeds directly
    into post-gap arbitration state.
    """

    def _gapped_run(self, policy, fast_forward):
        cfg = NocConfig(width=8, height=8, vc_depth=8, max_packet_flits=8)
        net = Network(cfg, make_routing("xy"), policy)
        topo = MeshTopology(8, 8)
        early = SyntheticTrafficSource(
            nodes=[0, 9],
            rate=0.2,
            pattern=UniformPattern(topo),
            app_id=0,
            seed=3,
            lengths=FixedLength(4),
            stop=250,
        )
        late = SyntheticTrafficSource(
            nodes=[54, 63],
            rate=0.2,
            pattern=UniformPattern(topo),
            app_id=1,
            seed=4,
            lengths=FixedLength(4),
            start=1500,
        )
        sim = Simulator(net, [early, late], fast_forward=fast_forward)
        sim.run(2400)
        sim.run_until_drained(5000)
        return sim, net

    def test_stc_rank_replay(self):
        state = {}
        for ff in (True, False):
            policy = StcPolicy(rank_interval=100, batch_period=50)
            sim, net = self._gapped_run(policy, ff)
            state[ff] = (
                dict(policy.ranks),
                dict(policy._last_counts),
                net.stats.packets_ejected,
                tuple(net.stats._eject),
                sim.metrics.ff_jumps > 0,
            )
        assert state[True][:4] == state[False][:4]
        assert state[True][4] is True  # the gap was actually skipped
        assert state[False][4] is False


def _cells():
    return [
        Cell.for_scenario(SCHEMES["RA_RAIR"], two_app_msp(0.4), Effort.SMOKE, seed=s)
        for s in SEEDS
    ]


def _policy(tmp_path: pathlib.Path, sub: str) -> FaultPolicy:
    return FaultPolicy(obs=ObsConfig(dir=str(tmp_path / sub), sample_period=50))


def _runs(cells, **engine):
    """The runs of a sweep that must not fail, and its report."""
    results, report = run_cells_detailed(cells, **engine)
    assert all(r.ok for r in results), [r.failure for r in results]
    return [r.run for r in results], report


def test_seed_matrix_ff_vs_naive_identical(tmp_path, monkeypatch):
    """Serial × jobs=2 × cache-hit under fast-forward all equal naive.

    The naive arm disables fast-forward through the environment variable,
    which propagates into worker processes — so the parallel path is
    exercised in both modes, and the obs JSONL files must match byte for
    byte across all of it.
    """
    cells = _cells()

    monkeypatch.delenv("REPRO_DISABLE_FAST_FORWARD", raising=False)
    runs_ff, _ = _runs(cells, jobs=1, policy=_policy(tmp_path, "ff"))
    runs_ff_par, _ = _runs(cells, jobs=2, policy=_policy(tmp_path, "ff_par"))
    cache = str(tmp_path / "cache")
    _runs(cells, jobs=1, cache=cache)
    runs_ff_hit, report_hit = _runs(cells, jobs=1, cache=cache)
    assert report_hit.cache_hits == len(SEEDS)

    monkeypatch.setenv("REPRO_DISABLE_FAST_FORWARD", "1")
    runs_naive, _ = _runs(cells, jobs=1, policy=_policy(tmp_path, "naive"))
    runs_naive_par, _ = _runs(cells, jobs=2, policy=_policy(tmp_path, "naive_par"))

    for ff, ff_par, ff_hit, naive, naive_par in zip(
        runs_ff, runs_ff_par, runs_ff_hit, runs_naive, runs_naive_par
    ):
        sig = naive.determinism_signature()
        assert ff.determinism_signature() == sig
        assert ff_par.determinism_signature() == sig
        assert ff_hit.determinism_signature() == sig
        assert naive_par.determinism_signature() == sig
        assert ff == naive
        assert ff.obs == naive.obs

    for name in sorted(p.name for p in (tmp_path / "naive").iterdir()):
        want = (tmp_path / "naive" / name).read_bytes()
        assert (tmp_path / "ff" / name).read_bytes() == want
        assert (tmp_path / "ff_par" / name).read_bytes() == want
        assert (tmp_path / "naive_par" / name).read_bytes() == want
    assert {p.name for p in (tmp_path / "ff").iterdir()} == {
        f"{cell_obs_name(c)}.jsonl" for c in cells
    }
