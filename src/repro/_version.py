"""Single-source package version and build provenance.

``pyproject.toml`` is the one place the version number lives; this module
recovers it at runtime so ``repro.__version__`` works both from an
installed distribution and from a source checkout on ``PYTHONPATH``
(the checkout's ``pyproject.toml`` wins when present, so editing it never
leaves a stale installed-metadata version visible).

:func:`git_revision` is the companion provenance stamp: the short commit
hash of the checkout the code is imported from, or ``None`` outside a git
work tree. Both ride into observability JSONL headers and service job
records so any artifact can be traced back to the code that produced it.
"""

from __future__ import annotations

import functools
import pathlib
import re

__all__ = ["__version__", "git_revision", "version_blurb"]

_FALLBACK_VERSION = "0+unknown"


def _version_from_pyproject() -> str | None:
    """Read ``version = "..."`` from the checkout's own pyproject.toml."""
    pyproject = pathlib.Path(__file__).resolve().parents[2] / "pyproject.toml"
    try:
        text = pyproject.read_text(encoding="utf-8")
    except OSError:
        return None
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    return match.group(1) if match else None


def _version_from_metadata() -> str | None:
    """Installed-distribution fallback (pip-installed, no source tree)."""
    try:
        from importlib import metadata

        return metadata.version("repro")
    except Exception:
        return None


__version__ = _version_from_pyproject() or _version_from_metadata() or _FALLBACK_VERSION


@functools.lru_cache(maxsize=1)
def git_revision() -> str | None:
    """Short commit hash of the source checkout, or None when unknowable.

    Anchored at the package directory (not the caller's cwd) so worker
    processes and daemons report the revision of the code they actually
    imported. Cached — at most one subprocess per process lifetime.
    """
    import subprocess  # only provenance stamps need it

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except Exception:
        return None
    if proc.returncode != 0:
        return None
    rev = proc.stdout.strip()
    return rev or None


def version_blurb(prog: str = "repro") -> str:
    """One-line ``prog version (git rev)`` string for ``--version`` flags."""
    rev = git_revision()
    return f"{prog} {__version__} (git {rev})" if rev else f"{prog} {__version__}"
