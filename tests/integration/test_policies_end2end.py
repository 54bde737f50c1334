"""End-to-end behavioural tests of the arbitration policies.

These tests verify the *direction* of each mechanism's effect on real
simulations (small meshes, short windows) — the paper's own claims are
judged over replicated seeds by ``repro.experiments.fidelity``.
"""


from repro import build_simulation
from repro.core.dpa import DpaConfig
from repro.core.msp import Stage
from repro.core.regions import RegionMap
from repro.noc.config import NocConfig
from repro.noc.topology import MeshTopology
from repro.traffic.adversarial import AdversarialTrafficSource
from repro.traffic.regional import RegionalAppTraffic


def two_app_run(scheme, p_inter=1.0, seed=3, policy_kwargs=None, routing="local",
                low=0.04, high=0.32, warmup=300, measure=1200):
    """6x6 mesh halves: App0 low load w/ inter-region share, App1 high intra."""
    cfg = NocConfig(width=6, height=6)
    topo = MeshTopology(6, 6)
    rm = RegionMap.halves(topo)
    sim, net = build_simulation(
        cfg, region_map=rm, scheme=scheme, routing=routing, policy_kwargs=policy_kwargs
    )
    sim.add_traffic(
        RegionalAppTraffic(
            rm, 0, rate=low, seed=seed,
            intra_fraction=1 - p_inter, inter_fraction=p_inter, mc_fraction=0.0,
        )
    )
    sim.add_traffic(
        RegionalAppTraffic(
            rm, 1, rate=high, seed=seed + 1,
            intra_fraction=1.0, inter_fraction=0.0, mc_fraction=0.0,
        )
    )
    res = sim.run_measurement(warmup=warmup, measure=measure, drain_limit=40_000)
    apl = net.stats.per_app_apl(window=res.window)
    return apl, res, net


class TestRairReducesInterference:
    def test_rair_cuts_low_load_inter_region_apl(self):
        rr, _, _ = two_app_run("rr")
        rair, _, _ = two_app_run("rair")
        assert rair[0] < rr[0] * 0.95  # clear improvement for App0

    def test_high_load_app_penalty_is_bounded(self):
        rr, _, _ = two_app_run("rr")
        rair, _, _ = two_app_run("rair")
        assert rair[1] < rr[1] * 1.35

    def test_full_msp_beats_va_only(self):
        va, _, _ = two_app_run("rair", policy_kwargs={"stages": Stage.VA})
        full, _, _ = two_app_run("rair")
        assert full[0] <= va[0] * 1.02  # VA+SA at least as good for App0


class TestStaticPriorities:
    def test_foreignh_helps_interregion_app(self):
        nat, _, _ = two_app_run("rair", policy_kwargs={"dpa": DpaConfig(mode="native")})
        foreign, _, _ = two_app_run("rair", policy_kwargs={"dpa": DpaConfig(mode="foreign")})
        # App0's traffic in region 1 is foreign; ForeignH should serve it better.
        assert foreign[0] < nat[0]


class TestStcBehaviour:
    def test_stc_prioritizes_low_intensity_app(self):
        rr, _, _ = two_app_run("rr")
        # Rank early enough for the short test window to be rank-driven.
        stc, _, _ = two_app_run(
            "stc", policy_kwargs={"rank_interval": 200, "batch_period": 400}
        )
        assert stc[0] < rr[0]


class TestAdversarialProtection:
    @staticmethod
    def run_with_flood(scheme, seed=4):
        cfg = NocConfig(width=6, height=6)
        topo = MeshTopology(6, 6)
        rm = RegionMap.halves(topo)
        sim, net = build_simulation(cfg, region_map=rm, scheme=scheme, routing="local")
        for app in (0, 1):
            sim.add_traffic(
                RegionalAppTraffic(
                    rm, app, rate=0.05, seed=seed + app,
                    intra_fraction=0.8, inter_fraction=0.2, mc_fraction=0.0,
                )
            )
        sim.add_traffic(AdversarialTrafficSource(topo, seed=seed + 9, rate=0.25, region_map=rm))
        res = sim.run_measurement(warmup=300, measure=1000, drain_limit=60_000)
        return net.stats.apl(window=res.window)  # adversary excluded by default

    def test_rair_shields_apps_from_flood(self):
        rr_apl = self.run_with_flood("rr")
        rair_apl = self.run_with_flood("rair")
        assert rair_apl < rr_apl


class TestRoutingInteraction:
    def test_rair_composes_with_dbar(self):
        local, _, _ = two_app_run("rair", routing="local")
        dbar, _, _ = two_app_run("rair", routing="dbar")
        # Both must work; DBAR should not catastrophically regress App1.
        assert dbar[1] < local[1] * 1.5
