"""Unit tests for the service wire protocol (repro.service.protocol)."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments.cache import cache_key
from repro.experiments.parallel import Cell
from repro.experiments.runner import SCHEMES, Effort
from repro.experiments.scenarios import ScenarioSpec
from repro.noc.config import NocConfig, VcClass
from repro.service.protocol import (
    JobRecord,
    JobSpec,
    ProtocolError,
    decode_as,
    decode_cells,
    decode_value,
    encode_cells,
    encode_value,
    stamp,
)
from repro.util.errors import ConfigError


def roundtrip(obj):
    """Encode -> JSON text -> decode, exactly what the wire does."""
    return decode_value(json.loads(json.dumps(encode_value(obj))))


def make_cell(scheme="RAIR", seed=7, cell_id=0) -> Cell:
    return Cell(
        scheme=SCHEMES["RAIR_Local"] if scheme == "RAIR" else SCHEMES[scheme],
        spec=ScenarioSpec(
            "repro.experiments.chaos:chaos_scenario",
            {"mode": "ok", "marker": None, "cell_id": cell_id, "rate": 0.05},
        ),
        effort=Effort.SMOKE,
        seed=seed,
    )


class TestValueCodec:
    def test_scalars_pass_through(self):
        for value in (None, True, False, 0, -3, 1.5, "x", ""):
            assert roundtrip(value) == value

    def test_containers(self):
        assert roundtrip([1, [2, 3], "a"]) == [1, [2, 3], "a"]
        assert roundtrip((1, 2)) == (1, 2)
        assert roundtrip({"a": (1,), "b": {"c": None}}) == {"a": (1,), "b": {"c": None}}

    def test_non_string_dict_keys(self):
        assert roundtrip({1: "a", (2, 3): "b"}) == {1: "a", (2, 3): "b"}

    def test_plain_enum_by_name(self):
        assert roundtrip(Effort.SMOKE) is Effort.SMOKE

    def test_int_enum_keeps_type(self):
        # VcClass is an IntEnum: it must NOT collapse to a bare int,
        # because NocConfig.__post_init__ type-checks the members.
        out = roundtrip(VcClass.GLOBAL)
        assert out is VcClass.GLOBAL
        assert isinstance(out, VcClass)

    def test_flag_combination_roundtrips(self):
        from repro.core.msp import Stage

        combo = Stage.VA | Stage.SA
        assert roundtrip(combo) == combo

    def test_dataclass_roundtrip_preserves_equality(self):
        cfg = NocConfig(width=4, height=4)
        assert roundtrip(cfg) == cfg

    def test_rejects_unencodable(self):
        with pytest.raises(ProtocolError):
            encode_value(object())

    def test_decode_rejects_non_repro_types(self):
        crafted = encode_value(make_cell())  # a builder names code, like a type
        crafted["fields"]["spec"]["fields"]["builder"] = "subprocess:run"
        for evil in (crafted, {"__repro__": "enum", "type": "pickle:Pickler", "name": "x"},
                     {"__repro__": "dataclass", "type": "os:environ", "fields": {}}):
            with pytest.raises(ProtocolError):
                decode_value(evil)
        for builder in ("subprocess:run", "repro_lookalike:run"):
            with pytest.raises(ConfigError):
                ScenarioSpec(builder, {"args": ["touch", "pwned"]})

    def test_decode_rejects_unknown_tag(self):
        with pytest.raises(ProtocolError):
            decode_value({"__repro__": "mystery"})

    def test_decode_rejects_unknown_enum_member(self):
        wire = json.loads(json.dumps(encode_value(Effort.SMOKE)))
        wire["name"] = "NOPE"
        with pytest.raises(ProtocolError):
            decode_value(wire)


class TestCellCodec:
    def test_cell_roundtrip_equal_and_same_cache_key(self):
        cell = make_cell()
        out = roundtrip(cell)
        assert out == cell
        assert cache_key(out) == cache_key(cell)

    def test_scheme_with_flag_and_policy_kwargs(self):
        # RAIR_VA carries a Stage flag; RAIR_DPA carries a DpaConfig —
        # the two hardest schemes to move invertibly.
        for name in ("RAIR_VA", "RAIR_DPA", "RAIR_VA+SA"):
            cell = replace(make_cell(), scheme=SCHEMES[name])
            out = roundtrip(cell)
            assert out == cell, name
            assert cache_key(out) == cache_key(cell), name

    def test_cell_with_config_override(self):
        # A config other than the builder's default travels in the spec.
        config = NocConfig(width=4, height=4)
        spec = ScenarioSpec("two_app_msp", {"p_inter": 0.5, "config": config})
        cell = replace(make_cell(), spec=spec)
        out = roundtrip(cell)
        assert out == cell
        assert cache_key(out) == cache_key(cell)

    def test_encode_decode_cells_typechecks(self):
        cells = [make_cell(cell_id=i) for i in range(3)]
        assert decode_cells(encode_cells(cells)) == cells
        with pytest.raises(ProtocolError):
            decode_cells([encode_value("not a cell")])


class TestJobSpec:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            JobSpec(cells=[make_cell()], priority="urgent")
        with pytest.raises(ProtocolError):
            JobSpec(cells=[make_cell()], jobs=0)
        with pytest.raises(ProtocolError):
            JobSpec(cells=[])
        with pytest.raises(ProtocolError):
            JobSpec(cells=["not a cell"])
        wire = encode_value(JobSpec(cells=[make_cell()]))
        wire["fields"]["cells"] = []  # a decoded spec is checked the same way
        with pytest.raises(ProtocolError, match="at least one cell"):
            decode_as(wire, JobSpec)


class TestJobRecord:
    def test_new_stamps_provenance(self):
        job = JobRecord.new("j000001", JobSpec(cells=[make_cell()]))
        assert job.meta["repro_version"] == stamp()["repro_version"]
        assert "git_rev" in job.meta
        assert job.state == "queued" and not job.terminal

    def test_status_wire_has_no_spec(self):
        job = JobRecord.new("j000003", JobSpec(cells=[make_cell()]))
        assert "spec" not in job.status_wire()

    def test_bad_state_rejected(self):
        wire = encode_value(JobRecord.new("j000004", JobSpec(cells=[make_cell()])))
        wire["fields"]["state"] = "exploded"
        with pytest.raises(ProtocolError):
            decode_value(wire)
