"""End-to-end tests for the obs report CLI and CSV exporters.

Generates a real stream (RAIR mesh, cross-region traffic, collector
attached) and drives ``python -m repro.obs.report`` through its three
modes — validate-only, human summary, CSV export — plus the failure
paths CI relies on for a nonzero exit status.
"""

from __future__ import annotations

import csv
import pathlib

import pytest

from repro import RegionMap, build_simulation
from repro.noc.config import NocConfig
from repro.noc.topology import MeshTopology
from repro.obs import MetricsCollector, ObsConfig
from repro.obs.exporters import export_csv
from repro.obs.report import main as report_main
from repro.obs.report import render_summary
from repro.obs.schema import load_jsonl
from repro.traffic.patterns import UniformPattern
from repro.traffic.regional import RegionalAppTraffic
from repro.traffic.synthetic import FixedLength, SyntheticTrafficSource


@pytest.fixture(scope="module")
def stream_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("obs")
    cfg = NocConfig(width=6, height=6)
    rm = RegionMap.halves(MeshTopology(6, 6))
    sim, _net = build_simulation(cfg, region_map=rm, scheme="rair", routing="local")
    for app, rate in ((0, 0.05), (1, 0.25)):
        sim.add_traffic(
            RegionalAppTraffic(rm, app, rate=rate, seed=app + 1,
                               intra_fraction=0.6, inter_fraction=0.4,
                               mc_fraction=0.0)
        )
    MetricsCollector(ObsConfig(dir=str(out), sample_period=50), "smoke").install(sim)
    res = sim.run_measurement(warmup=100, measure=400, drain_limit=20_000)
    sim.close()  # removes the spool; the stream stays
    assert res.obs is not None and res.obs.samples > 0
    return out / "smoke.jsonl"


class TestReportCheckMode:
    def test_ok_line_and_zero_exit(self, stream_path, capsys):
        assert report_main(["--check", str(stream_path)]) == 0
        outp = capsys.readouterr().out
        assert outp.startswith(f"OK {stream_path}:")
        assert "header=1" in outp
        assert "summary=1" in outp
        assert "latency_class=3" in outp

    def test_missing_file_fails(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert report_main(["--check", str(missing)]) == 1
        assert f"FAIL {missing}" in capsys.readouterr().err

    def test_invalid_stream_fails_but_valid_files_still_report(
        self, stream_path, tmp_path, capsys
    ):
        bad = tmp_path / "bad.jsonl"
        # A well-formed summary record, but the stream misses its header.
        bad.write_text(
            '{"kind":"summary","cycle":5,"samples":0,"events":0,'
            '"dpa_flips":0,"link_util":{}}\n'
        )
        assert report_main(["--check", str(bad), str(stream_path)]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.err and "must start with a header" in captured.err
        assert f"OK {stream_path}" in captured.out  # good file still validated

    def test_truncated_stream_fails(self, stream_path, tmp_path, capsys):
        # Drop the trailing summary — simulates a run killed mid-write.
        lines = stream_path.read_text().splitlines()
        cut = tmp_path / "cut.jsonl"
        cut.write_text("\n".join(lines[:-1]) + "\n")
        assert report_main(["--check", str(cut)]) == 1
        assert "exactly one summary" in capsys.readouterr().err


class TestReportSummaryMode:
    def test_renders_all_sections(self, stream_path, capsys):
        assert report_main([str(stream_path)]) == 0
        outp = capsys.readouterr().out
        assert "6x6 mesh, schema v1" in outp
        assert "run 'smoke'" in outp
        assert "latency (cycles):" in outp
        for cls in ("native", "foreign", "global"):
            assert cls in outp
        assert "p99" in outp
        assert "priority flips" in outp
        assert "flits/cycle" in outp

    def test_names_the_fabric(self, tmp_path, capsys):
        cfg = NocConfig(topology="torus", width=4, height=4)
        sim, net = build_simulation(cfg, scheme="rr", routing="xy")
        sim.add_traffic(SyntheticTrafficSource(
            nodes=range(cfg.num_nodes), rate=0.05, pattern=UniformPattern(net.topology),
            app_id=0, seed=3, lengths=FixedLength(2),
        ))
        MetricsCollector(ObsConfig(dir=str(tmp_path)), "torus").install(sim)
        sim.run_measurement(warmup=50, measure=200)
        sim.close()
        path = tmp_path / "torus.jsonl"
        assert report_main([str(path)]) == 0
        assert "4x4 torus, schema v1" in capsys.readouterr().out
        # A stream written before the header named its fabric reads as a mesh.
        records = load_jsonl(path)
        del records[0]["topology"]
        assert "4x4 mesh, schema v1" in render_summary(str(path), records, {})


class TestCsvExport:
    def test_cli_csv_flag_writes_files(self, stream_path, tmp_path, capsys):
        out = tmp_path / "csv"
        assert report_main(["--check", "--csv", str(out), str(stream_path)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "smoke_dpa_flips.csv",
            "smoke_latency.csv",
            "smoke_link_samples.csv",
            "smoke_vc_samples.csv",
        ]
        assert "wrote" in capsys.readouterr().out

    def test_exported_tables_are_consistent(self, stream_path, tmp_path):
        written = export_csv(str(stream_path), str(tmp_path))
        # Key each path by its suffix after the "smoke_" stem.
        by_name = {
            pathlib.Path(p).name.removeprefix("smoke_"): p for p in written
        }

        with open(by_name["vc_samples.csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cycle", "node", "occupancy", "ovc_n", "ovc_f"]
        # One row per node per sample on the 6x6 mesh.
        assert (len(rows) - 1) % 36 == 0
        assert len(rows) > 36

        with open(by_name["link_samples.csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cycle", "node", "port", "flits"]
        assert (len(rows) - 1) % (36 * 5) == 0

        with open(by_name["latency.csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["class", "count", "mean", "p50", "p95", "p99", "max"]
        assert [r[0] for r in rows[1:]] == ["native", "foreign", "global"]
        assert int(rows[1][1]) > 0  # native packets were observed

        with open(by_name["dpa_flips.csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cycle", "node", "native_high", "ovc_n", "ovc_f"]
        cycles = [int(r[0]) for r in rows[1:]]
        assert cycles == sorted(cycles)
