"""The slotted hot records and their trusted constructor.

model.trusted(cls) builds a record from values that already pass cls's
checks, without running them. For such values it must give exactly what
the public constructor gives, and the record must keep the behaviour of a
frozen slotted dataclass. The trace parser's common-case path must agree
with the full rules in naive_reference for every record, and the hot
paths (a batch, a timeline, parsing a common-case trace) must build no
hot record through its public constructor.
"""

from __future__ import annotations

import dataclasses
import io
import math
import re
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gptsched import (
    AdaptorPolicy,
    AllocationOutcome,
    DecisionRecord,
    EventKind,
    GptRequest,
    ProfilerCoefficients,
    ResourceVector,
    SchedulerConfig,
    SimEvent,
    TaskKind,
    Threshold,
    UtilizationVector,
    ValidationError,
    estimate_demand,
    run_timeline,
    schedule_max_util,
)
from gptsched.model import trusted
from gptsched.scheduling import ClusterState, ScanPrefix
from gptsched.workload import TraceParseError, load_trace, request_from_dict, trace_to_string

from helpers import node, profiled_request, request, template
from naive_reference import ref_trace_record
from test_value_checks import VALUES

HOT_TYPES = (ResourceVector, UtilizationVector, GptRequest, DecisionRecord, AllocationOutcome, SimEvent)

_amounts = st.floats(min_value=0.0, max_value=1e300) | st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308])
_times = st.floats(min_value=0.0, max_value=1e300)
_positive = st.floats(min_value=5e-324, max_value=1e300)
_ids = st.text(min_size=1, max_size=5)
_maybe_ids = st.none() | _ids
_resource_vectors = st.builds(ResourceVector, _amounts, _amounts, _amounts)
_utilization_vectors = st.builds(UtilizationVector, _amounts, _amounts, _amounts)


def _scanned():
    # A tuple, or a view of a prefix of a longer shared list.
    return st.lists(_ids, max_size=4).flatmap(
        lambda ids: st.sampled_from([tuple(ids), ScanPrefix(ids + ["x"], len(ids))])
    )


# The field values of each hot type, all of which its checks keep as given.
FIELD_VALUES = {
    ResourceVector: st.tuples(_amounts, _amounts, _amounts),
    UtilizationVector: st.tuples(_amounts, _amounts, _amounts),
    GptRequest: st.tuples(
        _ids, st.sampled_from(TaskKind), _amounts, st.integers(0, 2**70), st.integers(0, 2**70),
        st.none() | _resource_vectors, st.none() | _times, st.none() | _positive, st.none() | _positive,
    ),
    DecisionRecord: st.tuples(
        _ids, _resource_vectors, _scanned(), _maybe_ids, st.none() | _utilization_vectors, st.booleans(),
        _maybe_ids, st.lists(st.tuples(_ids, st.floats(allow_nan=False)), max_size=3).map(tuple),
    ),
    AllocationOutcome: st.tuples(
        st.dictionaries(_ids, _ids, max_size=3), st.lists(_ids, max_size=3).map(tuple),
        st.lists(_ids, max_size=3).map(tuple), st.lists(st.builds(
            DecisionRecord, _ids, _resource_vectors, _scanned(), _maybe_ids, st.none(),
        ), max_size=2).map(tuple),
    ),
    SimEvent: st.tuples(_times, st.sampled_from(EventKind), _maybe_ids, _maybe_ids),
}


def _hashed(value: object) -> object:
    try:
        return hash(value)
    except TypeError as exc:  # AllocationOutcome holds a dict
        return str(exc)


@pytest.mark.parametrize("cls", HOT_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_trusted_record_equals_the_public_constructor(cls, data) -> None:
    values = data.draw(FIELD_VALUES[cls])
    made, public = trusted(cls)(*values), cls(*values)
    assert type(made) is cls
    assert made == public and repr(made) == repr(public)
    assert _hashed(made) == _hashed(public)
    for field, value in zip(dataclasses.fields(cls), values):
        assert getattr(made, field.name) is value
    assert dataclasses.replace(made) == public
    for field in dataclasses.fields(cls):
        copy = dataclasses.replace(made, **{field.name: getattr(public, field.name)})
        assert copy == public and repr(copy) == repr(public)
    for field in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(made, field.name, values[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(made, field.name)
    # dataclasses' frozen __setattr__ on a slotted class raises TypeError
    # for a name that is not a field; either way nothing is stored.
    with pytest.raises((AttributeError, TypeError)):
        made.extra = 1
    assert not hasattr(made, "__dict__")
    with pytest.raises(TypeError):
        weakref.ref(made)


def test_trusted_generates_one_constructor_per_class() -> None:
    assert trusted(ResourceVector) is trusted(ResourceVector)
    assert trusted(ResourceVector) is not trusted(UtilizationVector)


_TIMING_KEYS = ("arrival_s", "duration_s", "deadline_s")
_GOOD_RECORD = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["r1", "r1", "req-000001", "ü", "\ud800", ""]),
        "task_kind": st.sampled_from([kind.value for kind in TaskKind] + ["nope", None]),
        "model_params_b": st.floats(min_value=5e-324, max_value=1e300),
        "prompt_tokens": st.integers(0, 2**40),
        "output_tokens": st.integers(0, 2**40),
    },
    optional={key: _positive for key in _TIMING_KEYS},
)
_CHANGES = st.lists(
    st.tuples(st.sampled_from(["model_params_b", "prompt_tokens", "output_tokens", *_TIMING_KEYS]), VALUES)
    | st.tuples(st.sampled_from(["id", "task_kind", "model_params_b", "extra"]), st.just("drop"))
    | st.tuples(st.just("extra"), VALUES),
    max_size=2,
)


def _parsed(obj: dict) -> tuple:
    try:
        request = request_from_dict(obj, 7)
    except TraceParseError as exc:
        return ("error", str(exc))
    assert request.explicit_demand is None
    return ("ok", {name: (type(value), repr(value)) for name, value in _fields(request).items()})


def _referenced(obj: dict) -> tuple:
    try:
        fields = ref_trace_record(obj, 7)
    except TraceParseError as exc:
        return ("error", str(exc))
    return ("ok", {name: (type(value), repr(value)) for name, value in fields.items()})


def _fields(request: GptRequest) -> dict:
    names = ("id", "task_kind", "model_params_b", "prompt_tokens", "output_tokens", *_TIMING_KEYS)
    return {name: getattr(request, name) for name in names}


_PLAIN = {"id": "r1", "task_kind": "qa", "model_params_b": 7.0, "prompt_tokens": 10, "output_tokens": 20}


@settings(max_examples=500, deadline=None)
@example(_PLAIN, [("prompt_tokens", 2**1024)])
@example(_PLAIN, [("output_tokens", 10**400)])
@example(_PLAIN, [("prompt_tokens", 2**53 + 1)])
@example(_PLAIN, [("model_params_b", 0.0)])
@example(_PLAIN, [("arrival_s", None)])
@example(_PLAIN, [("deadline_s", -0.0)])
@given(_GOOD_RECORD, _CHANGES)
def test_common_case_parse_matches_the_full_rules(record, changes) -> None:
    # One or two fields replaced by any value (NaN, infinities, -0.0,
    # subnormals, bools, huge ints, subclasses, strings, null), dropped, or
    # an unknown key added: same fields and types, or the same refusal.
    record = dict(record)
    for key, value in changes:
        if value == "drop":
            record.pop(key, None)
        else:
            record[key] = value
    assert _parsed(record) == _referenced(record)


@pytest.fixture
def init_calls(monkeypatch):
    """Counts calls of each hot type's public __init__."""

    calls = {cls.__name__: 0 for cls in HOT_TYPES}
    for cls in HOT_TYPES:
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            calls[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return calls


def test_batch_builds_no_hot_record_through_its_constructor(init_calls) -> None:
    config = SchedulerConfig(threshold=Threshold(0.8), autoscale_template=template())
    queue = [profiled_request(f"p{k:03d}", 7.0 + k % 5, 100 + k, 50) for k in range(150)]
    queue += [request(f"r{k:03d}", 5.0 + k, 3.0, 1.0) for k in range(50)]
    queue.append(request("too-big", 500.0))
    state = ClusterState([node("a"), node("b", template(), (0.5, 0.5, 0.5))])
    for counted in init_calls:
        init_calls[counted] = 0
    outcome = schedule_max_util(queue, state, config)
    assert len(outcome.trace) == 201 and outcome.created_node_ids and outcome.unallocated == ("too-big",)
    assert init_calls == dict.fromkeys(init_calls, 0)


def test_timeline_builds_no_hot_record_through_its_constructor(init_calls) -> None:
    workload = [request(f"r{k:03d}", 30.0 + k % 7, arrival_s=float(k), duration_s=5.0 + k % 11) for k in range(60)]
    config = SchedulerConfig(threshold=Threshold(0.8), autoscale_template=template())
    nodes = [node("a")]
    seen = []
    for counted in init_calls:
        init_calls[counted] = 0

    def on_event(event, view) -> None:
        seen.append((event.kind, dict(init_calls)))

    adaptor = AdaptorPolicy(scale_down_grace_s=2.0)
    result = run_timeline(workload, nodes, "max-util", config, adaptor, 7.0, on_event=on_event)
    assert len(result.outcome.allocation) == 60
    assert {kind for kind, _ in seen} == set(EventKind)
    # The final report builds Node values; no event before it may build a record.
    assert seen[-1][1] == dict.fromkeys(init_calls, 0)


@pytest.mark.parametrize("timed", [False, True])
def test_common_case_trace_parses_without_the_request_constructor(timed, monkeypatch) -> None:
    timing = {"arrival_s": 1.5, "duration_s": 30.0} if timed else {}
    text = trace_to_string([profiled_request(f"r{k:04d}", 7.0, 10 + k, 20, **timing) for k in range(300)])
    calls = 0
    init = GptRequest.__init__

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GptRequest, "__init__", counting)
    requests = load_trace(io.StringIO(text))
    assert len(requests) == 300 and calls == 0
    monkeypatch.undo()
    assert trace_to_string(requests) == text


def test_overflowing_estimate_still_raises_the_constructor_error() -> None:
    with pytest.raises(ValidationError, match=re.escape("compute must be finite, got inf")):
        estimate_demand(profiled_request("r", 1e308, 600, 400))
    # inf * 0 tokens is NaN.
    coeffs = ProfilerCoefficients(flops_per_param_token=1e300)
    with pytest.raises(ValidationError, match=re.escape("compute must be finite, got nan")):
        estimate_demand(profiled_request("r", 1e300, 0, 0), coeffs)
    demand = estimate_demand(profiled_request("r", 7.0, 600, 400))
    assert demand == ResourceVector(14.0, 14.14, 14.0) and type(demand.compute) is float


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ResourceVector(math.nan, 1.0, 1.0), "compute must be finite, got nan"),
        (lambda: UtilizationVector(0.0, math.nan, 0.0), "memory must be finite, got nan"),
        (lambda: GptRequest("r", TaskKind.QA, model_params_b=math.nan), "model_params_b must be finite, got nan"),
        (lambda: GptRequest("r", TaskKind.QA, 1.0, arrival_s=math.nan), "arrival_s must be finite, got nan"),
    ],
)
def test_public_constructors_still_refuse_nan(build, message) -> None:
    with pytest.raises(ValidationError, match=re.escape(message)):
        build()
