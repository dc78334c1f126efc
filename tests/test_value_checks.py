"""The common-case value checks against the full rules they shortcut.

ResourceVector, UtilizationVector and GptRequest accept exact in-range
floats and ints with a type test and one comparison per field, and the
trace parser's read_number and read_int do the same. For every input,
each must agree with the full rules in naive_reference: accept the same
value and keep it with the same type, or raise the same error class with
the same message.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptsched import GptRequest, ResourceVector, TaskKind, UtilizationVector
from gptsched.workload import read_int, read_number

from naive_reference import (
    ref_read_int,
    ref_read_number,
    ref_request_fields,
    ref_resource_vector,
    ref_utilization_vector,
)


class _Int(int):
    pass


class _Float(float):
    pass


VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.0, 1.0]),
    st.integers(min_value=-(2**60), max_value=2**60),
    st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1, 2**1023, 2**1024 - 2**970, 2**1024, -(2**1024), 10**400]),
    st.integers(min_value=2**1023, max_value=2**1100),
    st.booleans(),
    st.builds(_Int, st.integers(min_value=-10, max_value=10)),
    st.builds(_Float, st.floats(allow_nan=True)),
    st.text(max_size=3),
    st.none(),
)
# Values every check accepts, so that a replaced field decides the outcome.
GOOD_FLOAT = st.floats(min_value=5e-324, max_value=1e300)
GOOD_INT = st.integers(min_value=0, max_value=2**40)
# A second field replaced by any value, or none: which refusal comes first.
SECOND = st.one_of(st.none(), st.tuples(st.integers(0, 5), VALUES))


def _replaced(values: tuple, field: int, value: object, second) -> tuple:
    values = list(values)
    values[field] = value
    if second is not None:
        values[second[0] % len(values)] = second[1]
    return tuple(values)


def _kept(value: object) -> tuple:
    # repr tells -0.0 from 0.0 and NaN from a number.
    return type(value), repr(value)


def _run(fn, *args) -> tuple:
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the rules under test raise several classes
        return ("error", type(exc), str(exc))


def _assert_same(fast: tuple, full: tuple, kept) -> None:
    assert fast[0] == full[0], (fast, full)
    if fast[0] == "ok":
        assert kept(fast[1]) == kept(full[1])
    else:
        assert fast == full


def _kept_fields(values) -> list:
    return [_kept(value) for value in (values.as_tuple() if hasattr(values, "as_tuple") else values)]


@pytest.mark.parametrize("field", range(3))
@settings(max_examples=200, deadline=None)
@given(st.tuples(GOOD_FLOAT, GOOD_FLOAT, GOOD_FLOAT), VALUES, SECOND)
def test_resource_and_utilization_vectors_match_the_full_rules(field, good, value, second) -> None:
    args = _replaced(good, field, value, second)
    _assert_same(_run(ResourceVector, *args), _run(ref_resource_vector, *args), _kept_fields)
    _assert_same(_run(UtilizationVector, *args), _run(ref_utilization_vector, *args), _kept_fields)


REQUEST_FIELDS = ("model_params_b", "prompt_tokens", "output_tokens", "arrival_s", "duration_s", "deadline_s")


def _request_fields(request_id, kind, *numbers) -> dict:
    params, prompt, output, arrival, duration, deadline = numbers
    request = GptRequest(request_id, kind, params, prompt, output, None, arrival, duration, deadline)
    return {name: getattr(request, name) for name in REQUEST_FIELDS}


@pytest.mark.parametrize("field", range(len(REQUEST_FIELDS)))
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["r1", "r1", "r1", ""]),
    st.sampled_from([*TaskKind, "chat", None]),
    st.tuples(
        GOOD_FLOAT, GOOD_INT, GOOD_INT,
        st.one_of(st.none(), GOOD_FLOAT), st.one_of(st.none(), GOOD_FLOAT), st.one_of(st.none(), GOOD_FLOAT),
    ),
    st.one_of(st.none(), VALUES),
    SECOND,
)
def test_request_matches_the_full_rules(field, request_id, kind, good, value, second) -> None:
    args = (request_id, kind, *_replaced(good, field, value, second))
    _assert_same(_run(_request_fields, *args), _run(ref_request_fields, *args),
                 lambda fields: [(name, _kept(fields[name])) for name in REQUEST_FIELDS])


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_number_readers_match_the_full_rules(value) -> None:
    _assert_same(_run(read_number, value), _run(ref_read_number, value), _kept)
    _assert_same(_run(read_int, value), _run(ref_read_int, value), _kept)
