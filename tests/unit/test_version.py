"""Unit tests for version single-sourcing (repro._version)."""

from __future__ import annotations

import argparse
import pathlib
import re

import pytest

import repro
from repro._version import __version__, git_revision, version_blurb


def pyproject_version() -> str | None:
    root = pathlib.Path(repro.__file__).resolve().parents[2]
    try:
        text = (root / "pyproject.toml").read_text(encoding="utf-8")
    except OSError:
        return None
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE)
    return match.group(1) if match else None


class TestVersion:
    def test_package_exports_version(self):
        assert repro.__version__ == __version__
        assert __version__ and __version__ != "0+unknown"

    def test_matches_pyproject(self):
        expected = pyproject_version()
        if expected is None:
            pytest.skip("no pyproject.toml in this layout (installed package)")
        assert __version__ == expected

    def test_git_revision_shape(self):
        rev = git_revision()
        # None outside a git checkout; short hex hash inside one.
        if rev is not None:
            assert re.fullmatch(r"[0-9a-f]{7,40}", rev)

    def test_version_blurb(self):
        blurb = version_blurb("prog")
        assert blurb.startswith(f"prog {__version__}")


class TestVersionFlag:
    def test_cli_version_flag(self, capsys):
        from repro.experiments.report import add_common_args

        parser = add_common_args(argparse.ArgumentParser())
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert __version__ in out

    def test_stamp_carries_version(self):
        from repro.service.protocol import stamp

        fields = stamp()
        assert fields["repro_version"] == __version__
        assert "git_rev" in fields
