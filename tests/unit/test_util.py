"""Unit tests for util: errors, rng, validation, framed JSONL."""

import os

import numpy as np
import pytest

from repro.experiments.cache import SweepJournal
from repro.service.jobstore import JobStore
from repro.util.errors import ConfigError, ReproError, SimulationError, TrafficError
from repro.util.jsonl import read_records, write_text_atomic
from repro.util.rng import make_rng, spawn_rngs
from repro.util.validate import check_fraction, check_in, check_positive, require


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ConfigError, ReproError)
        assert issubclass(SimulationError, ReproError)
        assert issubclass(TrafficError, ReproError)

    def test_config_error_is_value_error(self):
        # Callers used to ValueError semantics keep working.
        assert issubclass(ConfigError, ValueError)

    def test_simulation_error_is_runtime_error(self):
        assert issubclass(SimulationError, RuntimeError)


class TestRng:
    def test_int_seed_reproducible(self):
        a, b = make_rng(123), make_rng(123)
        assert a.random() == b.random()

    def test_generator_passthrough(self):
        g = np.random.default_rng(5)
        assert make_rng(g) is g

    def test_spawn_streams_differ(self):
        rngs = spawn_rngs(7, 4)
        firsts = [r.random() for r in rngs]
        assert len(set(firsts)) == 4

    def test_spawn_is_stable(self):
        a = [r.random() for r in spawn_rngs(7, 3)]
        b = [r.random() for r in spawn_rngs(7, 3)]
        assert a == b

    def test_spawn_rejects_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)


class TestValidate:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ConfigError, match="broken"):
            require(False, "broken")

    def test_check_positive(self):
        check_positive(1e-9, "x")
        with pytest.raises(ConfigError):
            check_positive(0, "x")
        with pytest.raises(ConfigError):
            check_positive(-1, "x")

    def test_check_fraction(self):
        check_fraction(0.0, "f")
        check_fraction(1.0, "f")
        with pytest.raises(ConfigError):
            check_fraction(1.01, "f")
        with pytest.raises(ConfigError):
            check_fraction(-0.01, "f")

    def test_check_in(self):
        check_in("a", {"a", "b"}, "opt")
        with pytest.raises(ConfigError):
            check_in("c", {"a", "b"}, "opt")


def _sweep_journal(root):
    """(path, append(i), set of i read back) over a SweepJournal."""
    journal = SweepJournal(root, "deadbeef")
    return journal.path, lambda i: journal.record(f"k{i}"), lambda: {
        int(key[1:]) for key in journal.load()
    }


def _job_results(root):
    """The same triple over a JobStore result stream."""
    store = JobStore(root / "store")
    return (
        store.result_path("j1"),
        lambda i: store.append_result("j1", {"kind": "cell", "seq": i, "index": i}),
        lambda: set(store.cell_records("j1")),
    )


class TestFramedJsonl:
    @pytest.mark.parametrize(
        "caller", [_sweep_journal, _job_results], ids=["sweep_journal", "job_results"]
    )
    def test_torn_tail_loses_at_most_one_record(self, tmp_path, caller):
        path, append, load = caller(tmp_path)
        append(0)
        append(1)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "k2", "kind": "cell", "ind')  # interrupted mid-append
        assert load() == {0, 1}
        append(3)  # the leading newline closes the torn line
        assert load() == {0, 1, 3}
        assert sum(1 for _ in read_records(path)) == 3


class TestAtomicWrite:
    def test_two_writers_of_one_path_use_distinct_temp_files(self, tmp_path, monkeypatch):
        target = tmp_path / "table.txt"
        published = []
        real_replace = os.replace

        def replace(src, dst):
            published.append(src)
            if len(published) == 1:  # a second writer lands mid-publish
                write_text_atomic(target, "second\n")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        write_text_atomic(target, "first\n")
        assert len(set(published)) == 2
        assert target.read_text() == "first\n"
        assert os.listdir(tmp_path) == ["table.txt"]

    def test_failed_write_keeps_the_old_content_and_no_temp_file(self, tmp_path):
        target = tmp_path / "table.txt"
        write_text_atomic(target, "old\n")
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(target, "half \ud800")  # a lone surrogate: unencodable
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["table.txt"]
