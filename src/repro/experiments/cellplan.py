"""The one path from a figure's cell plan to its printed table.

Every figure/ablation module (``fig09_msp`` … ``ablation_routing``)
declares only what differs between figures and hands it to
:func:`run_figure`:

* a **cell plan** — one ``(labels, cell, reference)`` triple per output
  row: the row's label columns, its own :class:`Cell`, and the cell it is
  compared against (the RO_RR baseline, the clean run of Fig. 17) or
  ``None``;
* a **projection** ``project(run, reference_run)`` from the finished
  run(s) to the row's value columns (``reference_run`` is ``None`` for a
  row without a reference cell);
* title, columns and notes.

:func:`figure_main` is the CLI of every figure: the flag block of
:func:`~repro.experiments.report.add_common_args` runs it locally,
replicated (``--seeds N``) or through a sweep-service daemon
(``--service URL``), with one rendering.

This module is the only caller of :func:`run_cells_detailed` above the
engine. Each distinct cell — distinct by :func:`cache_key`, the identity
the cache, the journal and the obs file names use — is submitted once, a
row's reference before its own cell, in row order, so the cell list (and
every cache key and sweep-journal digest) is a function of the plan
alone. The engine's keyword arguments (``jobs``, ``cache``, ``policy``,
``service``) pass through ``**engine`` verbatim;
fabric selection is not an engine matter — modules resolve ``topology``
into the scenario config as ``NocConfig(topology=...)`` (mesh, torus or
ring; the fabric fixes the escape VCs) before building their cells.

Seeds are an axis of the plan, not a second path: ``seeds=[...]``
submits every plan cell once per seed (the cell's own seed is replaced;
each cell's seeds stay adjacent, in the order given), projects each row
per seed with own and reference paired on the *same* seed, and reduces
every float value column to its across-seed mean plus a
``<column>_ci`` 95 % confidence half-width (:class:`SweepResult`);
``drained`` must hold on every seed. A seed whose own or reference cell
failed is dropped from that row: ``n`` counts the surviving seeds,
``dropped`` the lost ones. The one-seed tables the means are taken over
stay on the result (``FigureResult.seed_rows``, one table per seed), which
is what a paper claim's margin is evaluated on
(:mod:`repro.experiments.fidelity`). Figure modules forward ``**engine``:
``fig14_sixapp.run(seeds=[1, 2, 3])``.

Failed rows (the one rule, for every figure): a cell that fails after
retries never aborts the sweep. Its row keeps its label columns, every
value column reads ``FAILED(<ErrorType>)`` and ``drained`` is ``""``.
The row's own failure wins; a healthy row whose reference cell failed
reads ``FAILED(baseline <ErrorType>)``. A replicated row with no
surviving seed renders by the same rule from its first seed.
``metrics["failures"]`` counts failed *cells*, and
:func:`~repro.experiments.report.finish` turns a non-zero count into
exit code 3.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace

import numpy as np

from repro.experiments.cache import cache_key
from repro.experiments.parallel import Cell, CellResult, run_cells_detailed
from repro.experiments.report import (
    add_common_args,
    finish,
    parse_common,
    parse_effort,
)
from repro.experiments.runner import Effort, FigureResult
from repro.util.errors import ConfigError

__all__ = [
    "SweepResult",
    "run_figure",
    "render_row",
    "reduction_columns",
    "figure_main",
]


@dataclass
class SweepResult:
    """Samples of one scalar metric across replications."""

    name: str
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.size == 0:
            raise ConfigError(f"sweep {self.name!r} has no samples")

    @property
    def n(self) -> int:
        return int(self.samples.size)

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def std_error(self) -> float:
        if self.n < 2:
            return float("nan")
        return float(self.samples.std(ddof=1) / np.sqrt(self.n))

    def half_width(self, level: float = 0.95) -> float:
        """Half-width of the Student-t CI of the mean; ``nan`` for one
        sample, which bounds nothing."""
        if not 0 < level < 1:
            raise ConfigError(f"confidence level must be in (0,1), got {level}")
        if self.n < 2:
            return float("nan")
        # Imported here: scipy.stats costs ~0.7 s and ~60 MB, and every CLI,
        # worker process and daemon imports this module via repro.experiments.
        from scipy import stats as sp_stats

        return float(self.std_error * sp_stats.t.ppf(0.5 + level / 2, df=self.n - 1))

    def verdict(self, level: float = 0.95) -> str:
        """Where the CI of the mean lies: ``"holds"`` wholly above zero,
        ``"fails"`` wholly below, ``"undecided"`` when it straddles zero —
        or for one sample, which decides nothing."""
        if not abs(self.mean) > self.half_width(level):  # a nan half-width too
            return "undecided"
        return "holds" if self.mean > 0 else "fails"


def render_row(
    labels: dict, columns, project, own: CellResult, ref: CellResult | None = None
) -> dict:
    """One table row from a finished cell and its optional reference."""
    if not own.ok:
        label = f"FAILED({own.failure.error_type})"
    elif ref is not None and not ref.ok:
        label = f"FAILED(baseline {ref.failure.error_type})"
    else:
        return {**labels, **project(own.run, ref.run if ref is not None else None)}
    return {**dict.fromkeys(columns, label), **labels, "drained": ""}


def _replicated_row(labels: dict, columns, per_seed, pairs) -> dict:
    """One table row from a row's one-seed renderings and the ``(own,
    reference)`` results they came from, one of each per seed."""
    kept = [
        row
        for row, (own, ref) in zip(per_seed, pairs)
        if own.ok and (ref is None or ref.ok)
    ]
    counts = {"n": len(kept), "dropped": len(pairs) - len(kept)}
    if not kept:  # the first seed's row; a *_ci column reads what its value column reads
        first = per_seed[0]
        return {**{c: first.get(c.removesuffix("_ci"), "") for c in columns}, **counts}
    row = dict(labels)
    for column in kept[0]:
        if column in labels:
            continue
        values = [sample[column] for sample in kept]
        if isinstance(values[0], float):
            stat = SweepResult(column, values)
            row[column], row[f"{column}_ci"] = stat.mean, stat.half_width()
        else:
            row[column] = all(values)
    return {**row, **counts}


def run_figure(
    plan,
    project,
    *,
    effort: Effort,
    figure: str,
    title: str,
    columns: list[str],
    notes=(),
    windows_suffix: str = "",
    seeds=None,
    **engine,
) -> FigureResult:
    """Execute a cell plan and render it (see the module docstring).

    ``columns`` is label columns, then value columns, then ``drained``;
    ``notes`` follow the generated ``windows:`` note, which
    ``windows_suffix`` extends. With ``seeds`` each value column gains
    its ``<column>_ci`` neighbour and ``n`` / ``dropped`` close the row.
    ``seed_rows`` holds the one-seed table of every seed (without
    ``seeds``: the table itself).
    """
    plan = list(plan)
    notes = [
        f"windows: warmup={effort.warmup}, measure={effort.measure}{windows_suffix}",
        *notes,
    ]
    axis, one_seed_columns = [None], columns
    if seeds is not None:
        axis = list(seeds)
        if not axis:
            raise ConfigError("need at least one seed")
        plain = {"drained"}.union(*(labels for labels, _own, _ref in plan))
        columns = [
            name
            for column in columns
            for name in ([column] if column in plain else [column, f"{column}_ci"])
        ] + ["n", "dropped"]
        notes.insert(
            1, f"seeds: {axis}; values are across-seed means, *_ci the 95% CI half-width"
        )
    cells: dict[str, Cell] = {}

    def key_of(cell: Cell | None, seed) -> str | None:
        """Enter ``cell`` (re-seeded, on a seed axis) in the cell table; its key."""
        if cell is None:
            return None
        if seed is not None:
            cell = replace(cell, seed=seed)
        key = cache_key(cell)
        cells.setdefault(key, cell)
        return key

    # The order cells reach the engine: row by row, reference before own,
    # each cell's seeds adjacent.
    keyed = [
        [[key_of(cell, seed) for seed in axis] for cell in (ref, own)]
        for _labels, own, ref in plan
    ]
    results, report = run_cells_detailed(list(cells.values()), **engine)
    finished = {None: None, **dict(zip(cells, results))}
    rows, seed_rows = [], [[] for _seed in axis]
    for (labels, _own, _ref), (ref_keys, own_keys) in zip(plan, keyed):
        pairs = [(finished[o], finished[r]) for o, r in zip(own_keys, ref_keys)]
        per_seed = [
            render_row(labels, one_seed_columns, project, own, ref) for own, ref in pairs
        ]
        for table, row in zip(seed_rows, per_seed):
            table.append(row)
        if seeds is not None:
            rows.append(_replicated_row(labels, columns, per_seed, pairs))
    return FigureResult(
        metrics=report.to_metrics(),
        figure=figure,
        title=title,
        columns=columns,
        rows=rows if seeds is not None else seed_rows[0],
        notes=notes,
        seed_rows=seed_rows,
    )


def reduction_columns(run, ref) -> dict:
    """The projection of a reduction-vs-baseline row.

    ``red_app<i>`` (APL reduction of ``run`` vs ``ref``; positive means
    ``run`` is better) for every application the reference run measured,
    then their mean ``red_avg``, then ``drained``.
    """
    reds = {
        f"red_app{app}": run.reduction_vs(ref, app=app)
        for app in sorted(ref.per_app_apl)
    }
    avg = sum(reds.values()) / len(reds)
    return {**reds, "red_avg": avg, "drained": run.drained}


def figure_main(run, description: str, argv=None) -> int:
    """The CLI behind every ``python -m repro.experiments.<figure>``: run the
    figure as the common flags describe, print it, return the exit code."""
    parser = add_common_args(argparse.ArgumentParser(description=description))
    args, common = parse_common(parser, argv)
    return finish(run(effort=parse_effort(args.effort), seed=args.seed, **common))
