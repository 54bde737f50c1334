"""The cProfile entry point (``python -m repro.noc.profile``)."""

from repro.noc.profile import main


def test_documented_sort_alias_runs_and_prints_both_views(capsys):
    # ``--sort tottime`` is the invocation the module docstring and
    # EXPERIMENTS.md give; pstats aliases must be accepted, not only the
    # canonical SortKey names.
    assert main(["--effort", "SMOKE", "--sort", "tottime", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "per-module totals (sorted by internal time):" in out
    assert "Ordered by: internal time" in out
    assert "do_sa" in out


def test_effort_is_case_insensitive_like_every_other_cli(capsys):
    assert main(["--effort", "smoke", "--top", "1"]) == 0
    assert "at effort SMOKE" in capsys.readouterr().out
