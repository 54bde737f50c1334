"""Golden-number regression tests for the reproduced tables.

Each test runs a tiny fixed-seed configuration of a figure CLI and
compares the *entire* rendered table — rows, columns, notes — against a
checked-in expectation, exactly. The simulator is deterministic, so any
diff means a behavior change: kernel refactors, observability wiring, or
policy edits cannot silently shift the paper numbers.

Execution metrics (wall time, cache counters) are stripped before
comparison — they are the only legitimately run-dependent part of a
:class:`~repro.experiments.runner.FigureResult`.

``fig09_smoke_jobs2`` renders ``fig09_smoke`` again from two worker
processes against a cold, then warm, cache and must match the same golden
file: the figure-level form of the seed matrix's serial == parallel ==
cache identity.

To regenerate after an *intentional* simulation change::

    PYTHONPATH=src python tests/integration/test_golden_figures.py --regen

and review the diff like any other code change.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments import (
    ablation_hysteresis,
    ablation_routing,
    ablation_vcsplit,
    fig09_msp,
    fig10_routing,
    fig12_dpa,
    fig14_sixapp,
    fig15_patterns,
    fig17_parsec,
    table1,
)
from repro.experiments.runner import Effort

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: fixed seed for the golden runs — never change without regenerating
GOLDEN_SEED = 42


def _smoke(module, **axes):
    """A SMOKE-effort, fixed-seed run of ``module`` on reduced axes.

    The returned factory forwards engine keywords (``jobs``, ``cache``).
    """
    return lambda **engine: module.run(
        effort=Effort.SMOKE, seed=GOLDEN_SEED, **axes, **engine
    )


CASES = {
    "fig09_smoke": _smoke(fig09_msp, p_values=(0.0, 1.0)),
    "fig10_smoke": _smoke(fig10_routing, p_values=(1.0,)),
    "fig12a_smoke": _smoke(fig12_dpa, variants=("a",)),
    "fig14_smoke": _smoke(fig14_sixapp),
    "fig15_smoke": _smoke(fig15_patterns, patterns=("tp",)),
    "fig17_smoke": _smoke(fig17_parsec, schemes=("RO_RR", "RA_RAIR")),
    "ablation_hysteresis_smoke": _smoke(ablation_hysteresis, deltas=(0.0, 0.2)),
    "ablation_vcsplit_smoke": _smoke(
        ablation_vcsplit, splits=ablation_vcsplit.SPLITS[1:2]
    ),
    "ablation_routing_smoke": _smoke(ablation_routing, routings=("xy", "dbar")),
    "table1": table1.run,
}

#: extra inputs: a case rendered at ``jobs=2`` against a tmp cache, cold then
#: warm, held to the golden file of the case it renders
PARALLEL = {"fig09_smoke_jobs2": "fig09_smoke"}


def _normalized(result) -> dict:
    """JSON-round-tripped table dict without the execution metrics."""
    d = result.to_json_dict()
    d.pop("metrics", None)
    return json.loads(json.dumps(d))


@pytest.mark.parametrize("name", sorted(CASES) + sorted(PARALLEL))
def test_golden_table(name, tmp_path):
    golden = PARALLEL.get(name, name)
    path = GOLDEN_DIR / f"{golden}.json"
    assert path.exists(), (
        f"missing golden file {path}; generate it with "
        f"'PYTHONPATH=src python {__file__} --regen'"
    )
    expected = json.loads(path.read_text())
    if name in PARALLEL:
        cold, warm = [CASES[golden](jobs=2, cache=tmp_path) for _ in range(2)]
        assert _normalized(cold) == expected, "jobs=2 differs from the golden table"
        assert _normalized(warm) == expected, "the cache differs from the golden table"
        cells = cold.metrics["cells"]
        assert (cold.metrics["cache_misses"], cold.metrics["cache_hits"]) == (cells, 0)
        assert (warm.metrics["cache_hits"], warm.metrics["cache_misses"]) == (cells, 0)
        assert warm.metrics["sim_cycles"] == 0  # nothing was re-simulated
        return
    actual = _normalized(CASES[name]())
    assert actual == expected, (
        f"{name} drifted from its golden table; if the change is "
        f"intentional, regenerate with 'PYTHONPATH=src python {__file__} "
        f"--regen' and commit the diff"
    )


def _regen() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, factory in sorted(CASES.items()):
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(_normalized(factory()), indent=2) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
