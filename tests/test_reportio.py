"""Canonical serialization: byte stability and round-trip identity."""

from __future__ import annotations

import io
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptsched import (
    SchedulerConfig,
    Threshold,
    ValidationError,
    build_report,
    schedule_max_util,
)
from gptsched import reportio
from gptsched.reportio import (
    COMPARISON_COLUMNS,
    REPORT_CSV_COLUMNS,
    SNAPSHOT_CSV_COLUMNS,
    canonical_json,
    format_float,
    outcome_to_dict,
    report_to_dict,
    write_comparison,
    write_outcome_document,
    write_report,
)
from gptsched.scheduling import ScanPrefix
from gptsched.simulator import SnapshotRow

from helpers import node, request, template
from naive_reference import ref_canonical_json


@pytest.mark.parametrize(
    "value, text",
    [
        (0.0, "0"),
        (-0.0, "0"),
        (1.0, "1"),
        (0.5, "0.5"),
        (1.0 / 3.0, "0.333333333"),
        (123456789.0, "123456789"),
        (1234567891.0, "1.23456789e+09"),
        (1e-07, "1e-07"),
        (140.0, "140"),
        (-2.5, "-2.5"),
    ],
)
def test_format_float(value: float, text: str) -> None:
    assert format_float(value) == text


def test_format_float_rejects_non_finite() -> None:
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValidationError):
            format_float(bad)


def test_canonical_json_scalars_and_containers() -> None:
    doc = {"a": 1, "b": [True, False, None], "c": {"d": 0.5, "e": "x\"y"}}
    assert canonical_json(doc) == '{"a":1,"b":[true,false,null],"c":{"d":0.5,"e":"x\\"y"}}'


def test_canonical_json_rejects_unknown_types() -> None:
    with pytest.raises(ValidationError):
        canonical_json({"x": object()})


def _outcome_and_report():
    nodes = [node("a", template(), util=(0.5, 0.5, 0.5)), node("b")]
    queue = [request("r1", 20.0, 10.0, 5.0), request("r2", 200.0)]
    config = SchedulerConfig(threshold=Threshold(0.8))
    outcome = schedule_max_util(queue, nodes, config)
    report = build_report(outcome, nodes, config.power_policy)
    return outcome, report


def test_same_report_twice_is_byte_identical() -> None:
    outcome, report = _outcome_and_report()
    buffers = [io.StringIO(), io.StringIO()]
    for buffer in buffers:
        write_outcome_document("max-util", outcome, report, buffer)
    assert buffers[0].getvalue() == buffers[1].getvalue()


def test_report_json_parse_reserialize_identity() -> None:
    _, report = _outcome_and_report()
    buffer = io.StringIO()
    write_report(report, "json", buffer, algorithm="max-util")
    text = buffer.getvalue()
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert canonical_json(parsed) + "\n" == text
    assert list(parsed) == ["algorithm", *report_to_dict(report)]


def test_report_json_key_order_and_nulls() -> None:
    _, report = _outcome_and_report()
    doc = report_to_dict(report)
    assert list(doc) == [
        "mean_compute_utilization",
        "utilization_stddev",
        "total_power_w",
        "node_count",
        "created_node_count",
        "request_count",
        "unallocated_count",
        "per_resource_mean_utilization",
        "deadline_misses",
        "energy_wh",
    ]
    assert doc["deadline_misses"] is None and doc["energy_wh"] is None
    assert list(doc["per_resource_mean_utilization"]) == ["compute", "memory", "storage"]


def test_report_csv_row_and_null_cells() -> None:
    _, report = _outcome_and_report()
    buffer = io.StringIO()
    write_report(report, "csv", buffer)
    lines = buffer.getvalue().split("\n")
    assert lines[0] == ",".join(REPORT_CSV_COLUMNS)
    cells = lines[1].split(",")
    assert len(cells) == len(REPORT_CSV_COLUMNS)
    # deadline_misses and energy_wh are empty for a batch report.
    assert cells[-2:] == ["", ""]
    assert cells[3] == "2"  # node_count

    with_algo = io.StringIO()
    write_report(report, "csv", with_algo, algorithm="max-util")
    assert with_algo.getvalue().split("\n")[0] == "algorithm," + ",".join(REPORT_CSV_COLUMNS)
    assert with_algo.getvalue().split("\n")[1].startswith("max-util,")


def test_outcome_document_shape() -> None:
    outcome, report = _outcome_and_report()
    doc = outcome_to_dict(outcome)
    assert list(doc) == ["allocation", "unallocated", "created_node_ids", "trace"]
    assert list(doc["allocation"]) == sorted(doc["allocation"])
    by_id = {entry["request_id"]: entry for entry in doc["trace"]}
    assert by_id["r1"]["chosen_node_id"] == "a"
    assert by_id["r1"]["pct"]["compute"] == 0.2
    assert by_id["r2"]["chosen_node_id"] is None
    assert by_id["r2"]["reason"] == "no-feasible-node"
    assert "power_estimates" not in by_id["r1"]

    buffer = io.StringIO()
    write_outcome_document("max-util", outcome, report, buffer)
    parsed = json.loads(buffer.getvalue())
    assert list(parsed) == ["algorithm", "outcome", "report"]
    assert canonical_json(parsed) + "\n" == buffer.getvalue()


def test_snapshot_csv_and_empty_header_only() -> None:
    rows = [
        SnapshotRow(0.0, "node-1", 0.4, 0.2, 0.1, 140.0),
        SnapshotRow(50.0, "node-1", 0.4, 0.2, 0.1, 140.0),
    ]
    buffer = io.StringIO()
    write_report(rows, "csv", buffer)
    text = buffer.getvalue()
    assert text.split("\n")[0] == ",".join(SNAPSHOT_CSV_COLUMNS)
    assert text.split("\n")[1] == "0,node-1,0.4,0.2,0.1,140"

    empty = io.StringIO()
    write_report([], "csv", empty)
    assert empty.getvalue() == ",".join(SNAPSHOT_CSV_COLUMNS) + "\n"


def test_a_snapshot_row_is_its_table_cells() -> None:
    row = SnapshotRow(50.0, "node-1", 0.4, 0.2, 0.1, 140.0)
    assert SnapshotRow._fields == SNAPSHOT_CSV_COLUMNS
    assert tuple(row) == (50.0, "node-1", 0.4, 0.2, 0.1, 140.0)
    assert tuple(row) == tuple(getattr(row, column) for column in SNAPSHOT_CSV_COLUMNS)
    assert repr(row) == (
        "SnapshotRow(time_s=50.0, node_id='node-1', compute_util=0.4, "
        "memory_util=0.2, storage_util=0.1, power_w=140.0)"
    )


def test_snapshot_json_round_trip() -> None:
    rows = [SnapshotRow(0.0, "node-1", 0.4, 0.2, 0.1, 140.0)]
    buffer = io.StringIO()
    write_report(rows, "json", buffer)
    parsed = json.loads(buffer.getvalue())
    assert parsed == [
        {"time_s": 0, "node_id": "node-1", "compute_util": 0.4,
         "memory_util": 0.2, "storage_util": 0.1, "power_w": 140}
    ]
    assert canonical_json(parsed) + "\n" == buffer.getvalue()


def test_comparison_csv_and_json() -> None:
    _, report = _outcome_and_report()
    named = [("max-util", report), ("load-balance", report)]
    buffer = io.StringIO()
    write_comparison(named, "csv", buffer)
    lines = buffer.getvalue().split("\n")
    assert lines[0] == ",".join(COMPARISON_COLUMNS)
    assert lines[1].startswith("max-util,") and lines[2].startswith("load-balance,")
    assert len(lines) == 4 and lines[3] == ""

    jbuffer = io.StringIO()
    write_comparison(named, "json", jbuffer)
    parsed = json.loads(jbuffer.getvalue())
    assert [row["algorithm"] for row in parsed["rows"]] == ["max-util", "load-balance"]
    assert canonical_json(parsed) + "\n" == jbuffer.getvalue()


def test_unknown_format_rejected() -> None:
    _, report = _outcome_and_report()
    with pytest.raises(ValidationError, match="format must be json or csv"):
        write_report(report, "yaml", io.StringIO())
    with pytest.raises(ValidationError, match="format must be json or csv"):
        write_comparison([("x", report)], "xml", io.StringIO())


def test_write_to_path(tmp_path) -> None:
    _, report = _outcome_and_report()
    path = tmp_path / "report.json"
    write_report(report, "json", path)
    assert json.loads(path.read_text(encoding="utf-8"))["node_count"] == 2


class _Tag(str):
    """A str subclass: serialized from its characters as a value, and
    through str() as a dict key."""

    def __str__(self) -> str:
        return "tag:" + str.__str__(self)


_TRICKY_CHARS = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "\u2028", "\U0001f600", "a", " "]
_texts = st.text(max_size=8) | st.text(alphabet=st.sampled_from(_TRICKY_CHARS), max_size=8)
_strings = _texts | st.builds(_Tag, _texts)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.just(-0.0)
    | _strings
)
_keys = _strings | st.integers() | st.floats() | st.booleans()


def _containers(children: st.SearchStrategy) -> st.SearchStrategy:
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(_strings, max_size=6)
        | st.lists(_strings, max_size=6).map(tuple)
        | st.dictionaries(_keys, children, max_size=5)
    )


_trees = st.recursive(_scalars, _containers, max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(_trees)
def test_canonical_json_matches_reference_encoder(tree) -> None:
    assert canonical_json(tree) == ref_canonical_json(tree)


@settings(max_examples=100, deadline=None)
@given(st.lists(_strings, min_size=1, max_size=6), _scalars, st.integers(min_value=0, max_value=6))
def test_mixed_string_lists_match_reference_encoder(strings, other, at) -> None:
    mixed = list(strings)
    mixed.insert(at, other)
    # The same strings appear again as keys and as an all-string list, so
    # the per-document cache is hit from every kind of position.
    tree = {"mixed": mixed, "again": tuple(strings), **{s: s for s in strings}}
    assert canonical_json(tree) == ref_canonical_json(tree)


def test_canonical_json_deep_nesting_matches_reference_encoder() -> None:
    tree: object = ["leaf", 1]
    for depth in range(150):
        tree = {f"k{depth % 3}": [tree, "x"], "t": ()} if depth % 2 else (tree,)
    assert canonical_json(tree) == ref_canonical_json(tree)
    assert canonical_json([[], {}, (), ""]) == ref_canonical_json([[], {}, (), ""]) == '[[],{},[],""]'


def _plain(tree: object) -> object:
    # The tree with every ScanPrefix as the tuple of its ids, for the
    # reference encoder.
    if isinstance(tree, ScanPrefix):
        return tuple(tree)
    if isinstance(tree, dict):
        return {key: _plain(child) for key, child in tree.items()}
    if isinstance(tree, (list, tuple)):
        return type(tree)(_plain(child) for child in tree)
    return tree


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_strings, max_size=8),
    st.lists(st.integers(min_value=0, max_value=8), max_size=6),
    st.lists(_strings, max_size=3),
)
def test_scan_prefix_views_serialize_as_their_tuples(base, lengths, extra) -> None:
    views = [ScanPrefix(base, min(n, len(base))) for n in lengths]
    tree = {
        "views": views,
        "nested": [{"scanned": view, "n": len(view)} for view in reversed(views)],
        # The same ids over another list and over a tuple, and a list
        # sharing some of them.
        "copy": ScanPrefix(list(base), len(base)),
        "tuple": ScanPrefix(tuple(base), len(base)),
        "strings": extra + base,
    }
    assert canonical_json(tree) == ref_canonical_json(_plain(tree))


_pair_values = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0) | _scalars
_pairs = st.lists(
    st.tuples(_strings, st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)).map(list)
    | st.tuples(_strings, _pair_values)
    | st.lists(_pair_values, min_size=1, max_size=3),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(_pairs)
def test_pair_lists_match_reference_encoder(pairs) -> None:
    # Mostly [str, float] pairs as power estimates are written, with
    # tuples, other values and other lengths mixed in.
    tree = {"power_estimates": pairs, "again": [pair for pair in pairs if type(pair) is list]}
    assert canonical_json(tree) == ref_canonical_json(tree)


def test_pair_lists_reject_non_finite_values() -> None:
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            canonical_json([["n1", 1.0], ["n2", bad]])


@pytest.mark.parametrize(
    "tree",
    [
        float("nan"),
        {"x": float("inf")},
        ["a", "b", float("-inf")],
        ("a", object()),
        {"x": [{"y": b"bytes"}]},
        {1.5: {"s": {"set"}}},
        [complex(1, 2)],
    ],
)
def test_canonical_json_rejects_what_the_reference_rejects(tree) -> None:
    with pytest.raises(ValidationError):
        canonical_json(tree)
    with pytest.raises(ValidationError):
        ref_canonical_json(tree)


def test_outcome_document_escapes_each_distinct_string_once(monkeypatch) -> None:
    nodes = [node(f"node-{i:02d}") for i in range(40)]
    queue = [request(f"r{j:03d}", 8.0, 4.0, 2.0) for j in range(300)]
    config = SchedulerConfig(threshold=Threshold(0.8), autoscale_template=template())
    outcome = schedule_max_util(queue, nodes, config)
    report = build_report(outcome, nodes, config.power_policy)
    scanned = sum(len(record.scanned) for record in outcome.trace)

    calls = 0
    escape = reportio.encode_basestring

    def counting(text: str) -> str:
        nonlocal calls
        calls += 1
        return escape(text)

    monkeypatch.setattr(reportio, "encode_basestring", counting)
    buffer = io.StringIO()
    write_outcome_document("max-util", outcome, report, buffer)

    distinct = set()

    def collect(value: object) -> None:
        if isinstance(value, str):
            distinct.add(value)
        elif isinstance(value, dict):
            distinct.update(value)
            for child in value.values():
                collect(child)
        elif isinstance(value, list):
            for child in value:
                collect(child)

    collect(json.loads(buffer.getvalue()))
    assert scanned > 10 * len(distinct)
    assert 0 < calls <= len(distinct)


def test_failed_serialization_leaves_existing_output_unchanged(tmp_path) -> None:
    outcome, report = _outcome_and_report()
    bad = replace(report, total_power_w=float("inf"))
    path = tmp_path / "out.json"
    previous = b"previous output\n"
    path.write_bytes(previous)
    with pytest.raises(ValidationError):
        write_outcome_document("max-util", outcome, bad, path)
    assert path.read_bytes() == previous
    with pytest.raises(ValidationError):
        write_report(bad, "json", path, algorithm="max-util")
    assert path.read_bytes() == previous
    with pytest.raises(ValidationError):
        write_report([SnapshotRow(0.0, "node-1", 0.4, 0.2, 0.1, float("nan"))], "json", path)
    assert path.read_bytes() == previous
