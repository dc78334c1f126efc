"""The table writer against a csv.writer reference.

Snapshot, comparison and one-row report tables, with ids and algorithm
names holding separators, quotes, line breaks, non-ASCII and astral
characters, must be written as csv.writer(lineterminator="\\n") writes the
_cell-formatted cells: to a path and to a stream, in one chunk or in many.
A path sink is written in chunks, so a failure in the last row of a
large table leaves an existing file untouched, and the writer's memory
stays well below the table's size.
"""

from __future__ import annotations

import csv
import io
import os
import random
import tracemalloc
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptsched import Report, UtilizationVector, ValidationError
from gptsched import reportio
from gptsched.reportio import (
    COMPARISON_COLUMNS,
    REPORT_CSV_COLUMNS,
    SNAPSHOT_CSV_COLUMNS,
    write_comparison,
    write_report,
)
from gptsched.simulator import SnapshotRow

from naive_reference import ref_canonical_json

_names = st.text(
    alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "0", "é", "\u2028", "\U0001f600"]), max_size=8
) | st.text(max_size=6)
_floats = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e9, 1.5e-7])
)
_numbers = _floats | st.integers() | st.integers(min_value=2**53, max_value=2**70)
_cells = _numbers | st.none() | st.booleans()
_amounts = st.floats(min_value=0.0, max_value=1e6) | st.sampled_from([0.0, -0.0, 5e-324])


def _reference(columns, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([reportio._cell(value) for value in row])
    return buffer.getvalue()


def _snapshot_reference(rows) -> str:
    return _reference(SNAPSHOT_CSV_COLUMNS, [[getattr(row, c) for c in SNAPSHOT_CSV_COLUMNS] for row in rows])


def _written(write, path) -> bytes:
    # The text written to a stream, which must be the bytes written to path.
    stream = io.StringIO()
    write(stream)
    write(path)
    data = path.read_bytes()
    assert stream.getvalue().encode() == data
    return data


_snapshot_rows = st.lists(
    st.builds(SnapshotRow, _cells, _names | _cells, _cells, _cells, _cells, _cells), max_size=12
)
_reports = st.builds(
    Report,
    _numbers, _numbers, _numbers, st.integers(min_value=0), st.integers(min_value=0),
    st.integers(min_value=0), st.integers(min_value=0),
    st.builds(UtilizationVector, _amounts, _amounts, _amounts),
    st.none() | st.integers(min_value=0),
    st.none() | _floats,
)
_slices = st.sampled_from([1 << 20, 1, 7, 64])


@settings(max_examples=150, deadline=None)
@given(rows=_snapshot_rows, slice_size=_slices)
def test_snapshot_csv_matches_csv_writer(tmp_path_factory, rows, slice_size) -> None:
    path = tmp_path_factory.getbasetemp() / "snapshots.csv"
    expected = _snapshot_reference(rows)
    with mock.patch.object(reportio, "_WRITE_SLICE", slice_size):
        data = _written(lambda sink: write_report(rows, "csv", sink), path)
    assert data == expected.encode()


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.builds(SnapshotRow, _numbers, _names, _numbers, _numbers, _numbers, _numbers), max_size=6),
    slice_size=_slices,
)
def test_snapshot_json_coerces_every_value_but_the_id(tmp_path_factory, rows, slice_size) -> None:
    path = tmp_path_factory.getbasetemp() / "snapshots.json"
    expected = ref_canonical_json([
        {c: getattr(row, c) if c == "node_id" else float(getattr(row, c)) for c in SNAPSHOT_CSV_COLUMNS}
        for row in rows
    ])
    with mock.patch.object(reportio, "_WRITE_SLICE", slice_size):
        data = _written(lambda sink: write_report(rows, "json", sink), path)
    assert data == (expected + "\n").encode()


@settings(max_examples=150, deadline=None)
@given(named=st.lists(st.tuples(_names, _reports), max_size=5), slice_size=_slices)
def test_comparison_csv_matches_csv_writer(tmp_path_factory, named, slice_size) -> None:
    path = tmp_path_factory.getbasetemp() / "compare.csv"
    expected = _reference(COMPARISON_COLUMNS, [
        [name, float(r.mean_compute_utilization), float(r.utilization_stddev), float(r.total_power_w),
         r.node_count, r.unallocated_count]
        for name, r in named
    ])
    with mock.patch.object(reportio, "_WRITE_SLICE", slice_size):
        data = _written(lambda sink: write_comparison(named, "csv", sink), path)
    assert data == expected.encode()


@settings(max_examples=150, deadline=None)
@given(report=_reports, algorithm=st.none() | _names, slice_size=_slices)
def test_report_csv_matches_csv_writer(tmp_path_factory, report, algorithm, slice_size) -> None:
    path = tmp_path_factory.getbasetemp() / "report.csv"
    per = report.per_resource_mean_utilization
    row = [
        float(report.mean_compute_utilization), float(report.utilization_stddev), float(report.total_power_w),
        report.node_count, report.created_node_count, report.request_count, report.unallocated_count,
        float(per.memory), float(per.storage), report.deadline_misses,
        None if report.energy_wh is None else float(report.energy_wh),
    ]
    columns = REPORT_CSV_COLUMNS
    if algorithm is not None:
        columns, row = ("algorithm", *columns), [algorithm, *row]
    with mock.patch.object(reportio, "_WRITE_SLICE", slice_size):
        data = _written(lambda sink: write_report(report, "csv", sink, algorithm=algorithm), path)
    assert data == _reference(columns, [row]).encode()


@lru_cache(maxsize=None)
def _large_table(count: int) -> tuple:
    # Timeline-like rows: grid times, a few hundred node ids, 9-digit values.
    rng = random.Random(7)
    return tuple(
        SnapshotRow(60.0 * (i // 300), f"node-{i % 300:03d}", rng.random(), rng.random(), rng.random(),
                    100.0 + 100.0 * rng.random())
        for i in range(count)
    )


def test_failure_in_the_last_row_leaves_an_existing_table_untouched(tmp_path) -> None:
    rows = _large_table(100_000)
    bad = rows[:-1] + (SnapshotRow(rows[-1].time_s, "node-x", 0.5, float("nan"), 0.5, 150.0),)
    # Several chunks reach the temporary file before the last row fails.
    assert len(_snapshot_reference(rows[:30_000])) > reportio._WRITE_SLICE
    path = tmp_path / "snapshots.csv"
    path.write_bytes(b"previous output\n")
    with pytest.raises(ValidationError, match="non-finite"):
        write_report(bad, "csv", path)
    assert path.read_bytes() == b"previous output\n"
    assert os.listdir(tmp_path) == ["snapshots.csv"]
    stream = io.StringIO()
    with pytest.raises(ValidationError, match="non-finite"):
        write_report(bad, "csv", stream)
    assert stream.getvalue() == ""


def test_path_sink_table_memory_stays_well_below_its_size(tmp_path) -> None:
    rows = _large_table(100_000)
    path = tmp_path / "snapshots.csv"
    tracemalloc.start()
    try:
        write_report(rows, "csv", path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert path.read_bytes() == _snapshot_reference(rows).encode()
    assert peak < size / 2, (peak, size)


def test_json_failure_in_the_last_row_leaves_an_existing_table_untouched(tmp_path) -> None:
    rows = _large_table(100_000)
    bad = rows[:-1] + (SnapshotRow(rows[-1].time_s, "node-x", 0.5, float("nan"), 0.5, 150.0),)
    path = tmp_path / "snapshots.json"
    path.write_bytes(b"previous output\n")
    with pytest.raises(ValidationError, match="non-finite"):
        write_report(bad, "json", path)
    assert path.read_bytes() == b"previous output\n"
    assert os.listdir(tmp_path) == ["snapshots.json"]
    stream = io.StringIO()
    with pytest.raises(ValidationError, match="non-finite"):
        write_report(bad, "json", stream)
    assert stream.getvalue() == ""


def test_path_sink_json_table_memory_stays_well_below_its_size(tmp_path) -> None:
    # A JSON table streams row by row like a CSV table, to the same bytes as
    # one canonical_json document.
    rows = _large_table(100_000)
    path = tmp_path / "snapshots.json"
    tracemalloc.start()
    try:
        write_report(rows, "json", path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    docs = [{c: getattr(row, c) for c in SNAPSHOT_CSV_COLUMNS} for row in rows]
    assert path.read_bytes() == (reportio.canonical_json(docs) + "\n").encode()
    assert peak < size / 2, (peak, size)


@pytest.mark.parametrize("count", [0, 1, 3])
@pytest.mark.parametrize("key", [None, "rows"])
def test_json_table_matches_one_canonical_document(tmp_path, key, count) -> None:
    columns = ("name", "value", "count")
    rows = [("a,\"b\"\n", 1.5, 3), ("\u00e9\U0001f600", -0.0, None), ("", 5e-324, True)][:count]
    docs = [dict(zip(columns, row)) for row in rows]
    expected = reportio.canonical_json(docs if key is None else {key: docs}) + "\n"
    with mock.patch.object(reportio, "_WRITE_SLICE", 7):
        data = _written(lambda sink: reportio._write_table(columns, rows, "json", sink, key), tmp_path / "t.json")
    assert data == expected.encode()
