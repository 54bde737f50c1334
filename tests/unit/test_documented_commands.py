"""Every command, artefact path and export the repo names still resolves.

A deletion PR can leave a ``python -m`` line in a README, a path in a CI
step, or a name in an ``__all__`` pointing at nothing; these tests read
the documents and the packages themselves, so nothing has to be listed
here by hand.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib
import pkgutil
import re
import sys

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).resolve().parents[2]
DOCUMENTS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "PAPER.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".github" / "workflows" / "ci.yml",
]
# First-party modules only (pip, pytest, ruff are the environment's business).
# Lower case only, so a placeholder — ``repro.experiments.<module>``,
# ``repro.experiments.X`` — stops at its package, which must exist too.
MODULE = re.compile(r"python3? -m ((?:repro|benchmarks)[a-z0-9_.]*)")
PATH = re.compile(r"(?<![\w/])((?:benchmarks|examples)/[\w/.-]*\.py|results/[\w/.*<>-]*)")
# A back-ticked dotted name and nothing else: `repro.noc.sim.Simulator.step`
# (`repro.noc.*` and `repro.service.submit health` are prose, not references).
REFERENCE = re.compile(r"`(repro(?:\.\w+)+)`")


def _named(pattern: re.Pattern) -> list[tuple[str, str]]:
    """Sorted, distinct ``(document, match)`` pairs over all documents."""
    return sorted(
        {
            (doc.name, match.rstrip("."))
            for doc in DOCUMENTS
            for match in pattern.findall(doc.read_text(encoding="utf-8"))
        }
    )


MODULES = _named(MODULE)
PATHS = _named(PATH)
REFERENCES = _named(REFERENCE)


def test_the_patterns_still_find_the_commands():
    assert len(MODULES) > 10 and len(PATHS) > 5 and len(REFERENCES) > 20


@pytest.mark.parametrize(("doc", "module"), MODULES)
def test_documented_module_resolves(doc, module, monkeypatch):
    monkeypatch.setattr(sys, "path", [str(ROOT), str(ROOT / "src"), *sys.path])
    assert importlib.util.find_spec(module) is not None, f"{doc}: python -m {module}"


@pytest.mark.parametrize(("doc", "path"), PATHS)
def test_documented_path_exists(doc, path):
    if "<" in path or "*" in path:  # results/<job>.jsonl: a pattern, not a file
        path = path[: path.rindex("/") + 1]
    assert (ROOT / path).exists(), f"{doc}: {path}"


@pytest.mark.parametrize(("doc", "reference"), REFERENCES)
def test_documented_reference_resolves(doc, reference):
    """The longest importable prefix is a module; the rest are attributes of it."""
    parts = reference.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
            break
        except ImportError:  # not a module: an attribute of a shorter prefix
            continue
    for attr in parts[cut:]:
        assert hasattr(obj, attr), f"{doc}: `{reference}` stops resolving at {attr!r}"
        obj = getattr(obj, attr)


def test_every_exported_name_resolves():
    missing = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        missing += [
            f"{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not missing
