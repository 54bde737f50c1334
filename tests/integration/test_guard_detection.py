"""Integration tests for the runtime invariant guard.

Three claims, each load-bearing for the guard's contract:

1. **Detection** — every seeded fault class from
   :data:`repro.experiments.chaos.GUARD_FAULTS` is caught and classified
   with its own label (``FAILED(Deadlock)``, ``FAILED(Livelock)``, ...),
   and each failure leaves a schema-valid crash blackbox behind.
2. **Cleanliness** — strict-mode checks raise nothing on healthy uniform
   traffic, on every fabric (mesh, torus, ring), so the invariants are
   invariants and not flakes.
3. **Transparency** — a guarded run is bit-identical to an unguarded one:
   same determinism signature, same network counters, byte-identical obs
   JSONL. The guard is execution policy, never part of the result.
"""

from __future__ import annotations

import os

import pytest

from repro import build_simulation
from repro.experiments.chaos import GUARD_FAULTS, guard_chaos_cell
from repro.experiments.parallel import FaultPolicy, run_cells_detailed
from repro.experiments.runner import SCHEMES, Effort
from repro.noc.buffers import VC_ACTIVE, VC_VA
from repro.noc.config import NocConfig
from repro.noc.flit import Packet
from repro.noc.guard import GuardConfig, RuntimeGuard
from repro.obs.schema import load_jsonl, validate_stream
from repro.traffic.patterns import UniformPattern
from repro.traffic.synthetic import FixedLength, SyntheticTrafficSource
from repro.util.errors import GuardError

SCHEME = SCHEMES["RO_RR"]

#: fault token -> the failure label the sweep table must render
EXPECTED_LABEL = {
    "credit_leak": "CreditConservation",
    "drop_tail": "FlitConservation",
    "freeze_router": "Starvation",
    "dateline": "Dateline",
    "livelock": "Livelock",
    "deadlock": "Deadlock",
}


def strict_guard(tmp_path) -> GuardConfig:
    """A strict guard tuned for tiny smoke runs: frequent checks, short
    watchdogs, and an age watermark inside the smoke window."""
    return GuardConfig(
        mode="strict",
        dir=str(tmp_path),
        check_period=8,
        stall_cycles=200,
        age_watermark=300,
    )


class TestFaultClassification:
    def test_expected_labels_cover_every_guard_fault(self):
        assert sorted(EXPECTED_LABEL) == sorted(GUARD_FAULTS)

    @pytest.mark.parametrize("fault", GUARD_FAULTS)
    def test_seeded_fault_is_detected_and_classified(self, fault, tmp_path):
        cell = guard_chaos_cell(SCHEME, Effort.SMOKE, seed=7, fault=fault)
        results, report = run_cells_detailed(
            [cell], jobs=1, policy=FaultPolicy(guard=strict_guard(tmp_path))
        )
        (res,) = results
        assert not res.ok
        assert report.failures == 1
        assert res.failure.error_type == EXPECTED_LABEL[fault]
        assert res.failure.retryable is False  # guard trips are deterministic
        # ... and the forensics landed on disk as a schema-valid blackbox.
        boxes = [f for f in os.listdir(tmp_path) if f.endswith("_blackbox.jsonl")]
        assert len(boxes) == 1
        records = load_jsonl(tmp_path / boxes[0])
        counts = validate_stream(records)
        assert counts["guard_header"] == 1
        assert counts["guard_violation"] == 1
        assert counts.get("guard_event", 0) >= 1
        violation = records[-1]
        assert violation["reason"] in res.failure.message
        # a deadlock's blackbox names the wait-graph cycle it found
        if fault == "deadlock":
            assert len(violation["ring"]) >= 2
            for hop in violation["ring"]:
                assert {"node", "port", "vc", "pid", "state"} <= hop.keys()
        else:
            assert violation["ring"] == []


class TestCleanTraffic:
    @pytest.mark.parametrize("topology", ["mesh", "torus", "ring"])
    def test_strict_guard_is_silent_on_healthy_traffic(self, topology):
        cfg = NocConfig(topology=topology, width=4, height=4)
        sim, net = build_simulation(cfg, scheme="rr", routing="local")
        guard = RuntimeGuard(
            GuardConfig(mode="strict", check_period=16), f"clean_{topology}"
        )
        guard.install(sim)
        sim.add_traffic(SyntheticTrafficSource(
            nodes=range(cfg.num_nodes),
            rate=0.05,
            pattern=UniformPattern(net.topology),
            app_id=0,
            seed=7,
            lengths=FixedLength(2),
        ))
        res = sim.run_measurement(warmup=100, measure=400)
        assert res.abort is None
        assert res.drained
        assert guard.checks_run > 0  # the invariants actually ran


class TestBitIdentity:
    def _run(self, guard=None, obs=None):
        cfg = NocConfig(width=4, height=4)
        sim, net = build_simulation(cfg, scheme="rr", routing="xy")
        if obs is not None:
            from repro.obs.collector import MetricsCollector

            MetricsCollector(obs, "run").install(sim)
        if guard is not None:
            RuntimeGuard(guard, "run").install(sim)
        sim.add_traffic(SyntheticTrafficSource(
            nodes=range(cfg.num_nodes),
            rate=0.1,
            pattern=UniformPattern(net.topology),
            app_id=0,
            seed=11,
            lengths=FixedLength(3),
        ))
        res = sim.run_measurement(warmup=100, measure=500)
        return (res.abort, res.end_cycle, res.drained,
                net.flits_moved, net.packets_ejected), res

    def test_guard_off_vs_sample_vs_strict(self):
        bare, _ = self._run()
        sampled, _ = self._run(GuardConfig(mode="sample", check_period=64))
        strict, _ = self._run(GuardConfig(mode="strict", check_period=8))
        assert bare == sampled == strict

    def test_obs_stream_byte_identical_under_guard(self, tmp_path):
        from repro.obs.collector import ObsConfig

        off_dir, on_dir = tmp_path / "off", tmp_path / "on"
        base, _ = self._run(obs=ObsConfig(dir=str(off_dir)))
        guarded, _ = self._run(
            guard=GuardConfig(mode="strict", check_period=8),
            obs=ObsConfig(dir=str(on_dir)),
        )
        assert base == guarded
        off_bytes = (off_dir / "run.jsonl").read_bytes()
        on_bytes = (on_dir / "run.jsonl").read_bytes()
        assert off_bytes == on_bytes


def _vc_fault(invc, pkt, kind: str) -> None:
    """Corrupt one idle input VC into the state ``kind`` names."""
    if kind == "stateful_empty":
        invc.state = VC_VA
        return
    invc.pkt = pkt
    if kind == "pooled":
        pkt.in_pool = True
        invc.state = VC_VA
    elif kind == "overfull":
        invc.state = VC_VA
        invc.flits_recv = pkt.length + 1
    elif kind == "unrouted":
        invc.state = VC_ACTIVE


#: fault -> the exact message the flit-conservation sweep raises (the VC's
#: location is built only on a violation, so pin every message that names it)
VC_MESSAGES = {
    "stateful_empty": "(flit_conservation) at cycle 0: VC (node 5 port 1 vc 2) "
    "holds 0 flit(s) in state va with no resident packet",
    "idle_resident": "(flit_conservation) at cycle 0: VC (node 5 port 1 vc 2) "
    "is IDLE but packet #{pid} is resident",
    "pooled": "(pool_safety) at cycle 0: packet #{pid} resident at VC (node 5 "
    "port 1 vc 2) is marked in_pool — a pooled object is live in the network",
    "overfull": "(flit_conservation) at cycle 0: VC (node 5 port 1 vc 2) "
    "framing illegal for packet #{pid}: sent=0 recv=3 length=2",
    "unrouted": "(flit_conservation) at cycle 0: VC (node 5 port 1 vc 2) is "
    "ACTIVE without an allocated output VC",
}


@pytest.mark.parametrize("kind", sorted(VC_MESSAGES))
def test_vc_violation_messages(kind):
    sim, net = build_simulation(NocConfig(width=4, height=4), scheme="rr")
    guard = RuntimeGuard(GuardConfig(mode="strict"), "vc_fault").install(sim)
    pkt = Packet(src=0, dst=5, length=2, inject_cycle=0)
    _vc_fault(net.routers[5].in_vcs[1][2], pkt, kind)
    with pytest.raises(GuardError) as excinfo:
        guard.check(0, net)
    expected = "guard violation " + VC_MESSAGES[kind].format(pid=pkt.pid)
    assert str(excinfo.value) == expected
