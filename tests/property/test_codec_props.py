"""The one payload codec (repro.experiments.cache): everything that crosses a
process, disk or socket boundary comes back from JSON equal, fields that
``__eq__`` ignores included (compared through their encoded form)."""

import dataclasses
import json
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dpa import DpaConfig
from repro.experiments.cache import ResultCache, decode_as, decode_value, encode_value
from repro.experiments.parallel import (SOURCES, Cell, CellFailure, CellResult,
                                       ExecutionReport, FaultPolicy)
from repro.experiments.runner import SCHEMES, Effort, ScenarioRun
from repro.experiments.scenarios import SCENARIO_BUILDERS, ScenarioSpec
from repro.noc.guard import GUARD_MODES, GuardConfig
from repro.noc.stats import RunMetrics
from repro.obs.collector import ObsConfig, ObsSummary
from repro.service.protocol import (JOB_STATES, PRIORITIES, JobRecord, JobSpec,
                                    cell_result_to_wire)
from repro.util.errors import ProtocolError

INTS, FLOATS, TEXT = st.integers(-1, 10**6), st.floats(allow_nan=False), st.text(max_size=6)
SCALARS = {"int": INTS, "float": FLOATS, "bool": st.booleans(), "str": TEXT}


def scalar_fields(cls, **overrides):
    """Strategy for ``cls`` with every plain-scalar field generated."""
    kw = {f.name: SCALARS[f.type] for f in dataclasses.fields(cls) if f.type in SCALARS}
    return st.builds(cls, **{**kw, **overrides})


metrics = scalar_fields(RunMetrics, phase_cycles=st.dictionaries(TEXT, INTS),
                        phase_seconds=st.dictionaries(TEXT, FLOATS))
obs = scalar_fields(ObsSummary, dpa_flips_by_node=st.dictionaries(INTS, INTS),
                    latency=st.dictionaries(TEXT, st.dictionaries(TEXT, FLOATS)),
                    link_util=st.dictionaries(TEXT, FLOATS), jsonl_path=st.none() | TEXT)
runs = scalar_fields(ScenarioRun, window=st.tuples(INTS, INTS), abort=st.none() | TEXT,
                     per_app_apl=st.dictionaries(INTS, FLOATS),
                     metrics=st.none() | metrics, obs=st.none() | obs)
specs = st.builds(ScenarioSpec, st.sampled_from(sorted(SCENARIO_BUILDERS)),
                  st.dictionaries(TEXT, INTS | FLOATS))
schemes = st.sampled_from(list(SCHEMES.values())) | st.builds(
    DpaConfig, mode=st.sampled_from(["native", "foreign"])).map(
        lambda d: dataclasses.replace(SCHEMES["RA_RAIR"], policy_kwargs={"dpa": d}))
cells = st.builds(Cell, schemes, specs, st.sampled_from(Effort), INTS)
failures = scalar_fields(CellFailure)
sources = st.sampled_from(SOURCES)
results = scalar_fields(CellResult, cell=cells, run=runs, source=sources) | (
    scalar_fields(CellResult, cell=cells, failure=failures, source=sources))
policies = st.builds(
    FaultPolicy, st.integers(1, 5),
    obs=st.none() | st.builds(ObsConfig, st.none() | TEXT, st.integers(1, 99)),
    guard=st.none() | st.builds(GuardConfig, st.sampled_from(GUARD_MODES), st.none() | TEXT,
                                check_period=st.none() | st.integers(1, 99)))
job_specs = st.builds(JobSpec, st.lists(cells, min_size=1, max_size=3),
                      st.sampled_from(PRIORITIES), st.integers(1, 8), st.none() | TEXT,
                      st.booleans(), st.none() | policies)
records = scalar_fields(JobRecord, spec=job_specs, state=st.sampled_from(JOB_STATES),
                        start_seq=st.none() | INTS, meta=st.dictionaries(TEXT, TEXT))
tuple_keyed = st.dictionaries(st.tuples(INTS, TEXT, st.sampled_from(["VA", "SA"])), INTS)
# A JobSpec byte for byte as journaled while FaultPolicy still had two more
# fields and JobSpec its own obs/guard, since deleted: the codec drops unknown
# fields.
OLD_JOB = json.loads(
    '{"__repro__":"dataclass","type":"repro.service.protocol:JobSpec","fields":{"cells":[{'
    '"__repro__":"dataclass","type":"repro.experiments.parallel:Cell","fields":{"scheme":{'
    '"__repro__":"dataclass","type":"repro.experiments.runner:Scheme","fields":{"key":'
    '"RO_RR","policy":"rr","routing":"local","policy_kwargs":{}}},"spec":{"__repro__":'
    '"dataclass","type":"repro.experiments.scenarios:ScenarioSpec","fields":{"builder":'
    '"six_app","kwargs":{}}},"effort":{"__repro__":"enum","type":'
    '"repro.experiments.runner:Effort","name":"SMOKE"},"seed":1,"config":null,'
    '"policy_overrides":null}}],"priority":"normal","jobs":1,"cache":null,"use_journal":'
    'true,"policy":{"__repro__":"dataclass","type":"repro.experiments.parallel:FaultPolicy",'
    '"fields":{"max_attempts":2,"backoff_base_s":0.05,"backoff_max_s":2.0,"wall_timeout_s":'
    'null,"cycle_budget":null,"retry_timeouts":false}},"obs":null,"guard":null}}'
)


def assert_same(back, obj):  # the encoded form also compares compare=False fields
    assert back == obj and encode_value(back) == encode_value(obj)


@given(st.one_of(runs, scalar_fields(ExecutionReport), job_specs, records, tuple_keyed))
@example(decode_as(OLD_JOB, JobSpec))
@settings(max_examples=60, deadline=None)
def test_every_payload_round_trips_through_json(obj):
    assert_same(decode_value(json.loads(json.dumps(encode_value(obj)))), obj)


@given(results, INTS)
@settings(max_examples=30, deadline=None)
def test_stream_record_round_trips_and_drops_the_exception(res, seq):
    rec = json.loads(json.dumps(cell_result_to_wire(res, seq)))
    assert (rec["kind"], rec["seq"], rec["index"]) == ("cell", seq, res.index)
    back = decode_as(rec["result"], CellResult)
    assert back == res


@given(runs)
@settings(max_examples=20, deadline=None)
def test_result_cache_returns_an_equal_run(run):
    with tempfile.TemporaryDirectory() as root:
        ResultCache(root).put("ab" * 32, run)
        assert_same(ResultCache(root).get("ab" * 32), run)


@given(metrics, st.sampled_from([f.name for f in dataclasses.fields(RunMetrics)]))
@settings(max_examples=30, deadline=None)
def test_missing_fields_default_and_unknown_fields_drop(m, name):
    payload = json.loads(json.dumps(encode_value(m)))
    payload["fields"]["from_the_future"] = 1
    assert_same(decode_value(payload), m)
    del payload["fields"][name]
    assert_same(decode_value(payload), dataclasses.replace(
        m, **{name: getattr(RunMetrics(), name)}))


@pytest.mark.parametrize("payload", [
    {"__repro__": "dict", "items": [[[1], 2]]},
    {"__repro__": "tuple"},
    {"__repro__": "dataclass", "type": "repro.noc.stats:RunMetrics", "fields": [1]},
    {"__repro__": "dataclass", "type": "repro_lookalike:X", "fields": {}},
    {"__repro__": "dataclass", "type": "repro.experiments.parallel:FaultPolicy",
     "fields": {"backoff_max_s": -1.0}},
])
def test_malformed_payloads_raise_only_protocol_error(payload):
    with pytest.raises(ProtocolError):
        decode_value(payload)
