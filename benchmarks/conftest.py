"""Benchmark harness configuration.

Every benchmark regenerates one paper table/figure (DESIGN.md §3) at the
effort selected by the ``REPRO_BENCH_EFFORT`` environment variable
(``smoke``/``fast``/``medium``/``full``; default ``fast``). Each bench

* times the full experiment via pytest-benchmark (one round — these are
  minutes-long macro benchmarks, not microbenchmarks),
* prints the reproduced rows/series,
* saves them under ``results/`` for EXPERIMENTS.md,
* asserts the paper's qualitative *shape* (who wins, roughly by how much).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments.runner import Effort

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def bench_effort() -> Effort:
    """Effort level for benchmark runs (env: REPRO_BENCH_EFFORT)."""
    name = os.environ.get("REPRO_BENCH_EFFORT", "fast").upper()
    return Effort[name]


@pytest.fixture(scope="session")
def effort() -> Effort:
    return bench_effort()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: pathlib.Path, name: str, figure_result) -> None:
    """Print a reproduced figure and persist it to results/<name>.txt."""
    text = figure_result.format_table()
    print("\n" + text, flush=True)
    (results_dir / f"{name}.txt").write_text(text + "\n")


def run_once(benchmark, fn, *args, **kwargs):
    """Run a macro-experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
