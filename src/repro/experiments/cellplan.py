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

This module is the only caller of :func:`run_cells_detailed` for
figures. Each distinct cell is submitted once, a row's reference before
its own cell, in row order — the cell list (and so every cache key and
sweep-journal digest) is a function of the plan alone. The engine's
keyword arguments (``jobs``, ``cache``, ``policy``, ``obs``, ``guard``,
``service``) pass through ``**engine`` verbatim; fabric selection is not
an engine matter — modules resolve ``topology`` into the scenario config
with :func:`~repro.experiments.report.config_for_topology` (mesh, torus
or ring) before building their cells.

Failed rows (the one rule, for every figure): a cell that fails after
retries never aborts the sweep. Its row keeps its label columns, every
value column reads ``FAILED(<ErrorType>)`` and ``drained`` is ``""``.
The row's own failure wins; a healthy row whose reference cell failed
reads ``FAILED(baseline <ErrorType>)``. ``metrics["failures"]`` counts
failed *cells*, and :func:`~repro.experiments.report.finish` turns a
non-zero count into exit code 3.
"""

from __future__ import annotations

from repro.experiments.parallel import Cell, CellResult, run_cells_detailed
from repro.experiments.report import (
    common_from_args,
    effort_argparser,
    finish,
    parse_effort,
)
from repro.experiments.runner import Effort, FigureResult

__all__ = [
    "run_figure",
    "render_row",
    "reduction_columns",
    "run_from_args",
    "figure_main",
]


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
    **engine,
) -> FigureResult:
    """Execute a cell plan and render it (see the module docstring).

    ``columns`` is label columns, then value columns, then ``drained``;
    ``notes`` follow the generated ``windows:`` note, which
    ``windows_suffix`` extends.
    """
    plan = list(plan)
    cells: list[Cell] = []
    for _labels, own, ref in plan:
        for cell in (ref, own):
            if cell is not None and cell not in cells:
                cells.append(cell)
    results, report = run_cells_detailed(cells, **engine)

    def result_of(cell: Cell | None) -> CellResult | None:
        return None if cell is None else results[cells.index(cell)]

    return FigureResult(
        metrics=report.to_metrics(),
        figure=figure,
        title=title,
        columns=columns,
        rows=[
            render_row(labels, columns, project, result_of(own), result_of(ref))
            for labels, own, ref in plan
        ],
        notes=[
            f"windows: warmup={effort.warmup}, measure={effort.measure}"
            f"{windows_suffix}",
            *notes,
        ],
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


def run_from_args(run, args) -> int:
    """Run a figure as the parsed common flags describe; print; exit code."""
    return finish(
        run(
            effort=parse_effort(args.effort),
            seed=args.seed,
            **common_from_args(args),
        )
    )


def figure_main(run, description: str, argv=None) -> int:
    """The CLI behind every ``python -m repro.experiments.<figure>``."""
    return run_from_args(run, effort_argparser(description).parse_args(argv))
