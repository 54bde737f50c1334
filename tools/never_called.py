#!/usr/bin/env python3
"""Count the function-body lines under ``src/repro`` that no workflow calls.

Lines counted: for every ``def`` under ``src/repro`` (methods and nested
functions included), its body from the first statement after the
docstring to ``end_lineno``; a docstring-only stub counts nothing. A
nested function's lines therefore count in its own body and in the
enclosing one.

Called: a ``sys.setprofile`` ``call`` event whose code object starts
(``co_filename``, ``co_firstlineno``) on the ``def`` line or one of its
decorator lines.

Workflows, each run in-process at ``--effort smoke`` with the default
``--jobs 1`` so every cell simulates in this process:

* ``run_all``;
* fig09 with ``--seeds 2 --cache --obs --guard strict``, cold then warm;
* fig14 with ``--topology torus --guard sample``;
* ``run_all --seeds 2 --only fig12_dpa``;
* ``obs.report --csv`` over fig09's streams;
* ``fidelity results/verdicts.json`` on a copy of ``EXPERIMENTS.md`` (it
  rewrites the document it is given).

Not targeted: the paths only CI subprocesses reach (``service/``,
``chaos.py``, the parallel worker and retry path, the guard's stall
diagnosis) and the modules waiting on their own roadmap items.

Run from the repository root (a few minutes)::

    python tools/never_called.py

It prints ``never-called: N/M`` and then every never-called def, largest
first.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def function_bodies(src: pathlib.Path = SRC):
    """``(path, def line, name, start lines, body lines)`` for every def with a body.

    ``start lines`` are the lines a call event's ``co_firstlineno`` may
    name: the ``def`` line and each decorator line.
    """
    out = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body
            if ast.get_docstring(node, clean=False) is not None:
                body = body[1:]
            if not body:
                continue
            starts = {node.lineno, *(d.lineno for d in node.decorator_list)}
            lines = node.end_lineno - body[0].lineno + 1
            out.append((os.path.realpath(path), node.lineno, node.name, starts, lines))
    return out


def workflows(tmp: pathlib.Path):
    """``(label, thunk)`` per workflow; each thunk returns the CLI's exit code."""
    from repro.experiments import fidelity, fig09_msp, fig14_sixapp, run_all
    from repro.obs import report

    document = tmp / "EXPERIMENTS.md"
    document.write_text((ROOT / "EXPERIMENTS.md").read_text())

    smoke = ["--effort", "smoke"]
    fig09 = [*smoke, "--seeds", "2", "--cache", str(tmp / "cache"),
             "--obs", str(tmp / "obs"), "--guard", "strict"]
    return [
        ("run_all", lambda: run_all.main([*smoke, "--out", str(tmp / "all")])),
        ("fig09 cold", lambda: fig09_msp.main(fig09)),
        ("fig09 warm", lambda: fig09_msp.main(fig09)),
        ("fig14 torus", lambda: fig14_sixapp.main(
            [*smoke, "--topology", "torus", "--guard", "sample"])),
        ("fig12 seeds", lambda: run_all.main(
            [*smoke, "--seeds", "2", "--only", "fig12_dpa", "--out", str(tmp / "fig12")])),
        ("obs report", lambda: report.main(
            [*map(str, sorted((tmp / "obs").glob("*.jsonl"))), "--csv", str(tmp / "csv")])),
        ("fidelity", lambda: fidelity.main(
            [str(ROOT / "results" / "verdicts.json"), str(document)])),
    ]


def record_calls(thunks) -> set[tuple[str, int]]:
    """``(co_filename, co_firstlineno)`` of every code object the thunks call."""
    called: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    for label, thunk in thunks:
        sys.setprofile(profile)
        threading.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = thunk()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        if code:
            raise SystemExit(f"workflow {label!r} exited {code}")
    return {(os.path.realpath(f), line) for f, line in called}


def main() -> int:
    sys.path.insert(0, str(SRC.parent))
    with tempfile.TemporaryDirectory() as tmp:
        called = record_calls(workflows(pathlib.Path(tmp)))
    defs = function_bodies()
    never = [d for d in defs if not any((d[0], s) in called for s in d[3])]
    print(f"never-called: {sum(d[4] for d in never)}/{sum(d[4] for d in defs)} "
          "function-body lines under src/repro")
    for path, line, name, _, lines in sorted(never, key=lambda d: -d[4]):
        print(f"{lines:5d}  {os.path.relpath(path, ROOT)}:{line} {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
