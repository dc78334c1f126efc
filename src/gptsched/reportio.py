"""Canonical report, outcome, snapshot and comparison serialization.

JSON documents are emitted with keys in a fixed documented order and every
float formatted to 9 significant digits (%.9g), so identical inputs always
produce identical bytes and a parse/re-serialize cycle is the identity.
CSV output uses the same numeric formatting, a stable column order and LF
line endings.

The outcome document is written straight from the decision records, each
distinct string escaped once per document: the id list a scan shares
between its decisions (ScanPrefix views) is encoded once, and each view is
written as one slice of those bytes.

Every table (the one-row report CSV, snapshots, comparisons) is written
by one table writer, as CSV or as a JSON list of row objects; either is
encoded row by row and leaves in chunks, like the outcome document.

This module opens every file the package reads or writes: open_text
reads a trace or a config, and write_chunks writes every output, the
JSON Lines trace included. A path sink (a symbolic link's target, for a
link) is written chunk by chunk to a temporary file beside it, which
replaces it only once the whole document is written, so any error (a
full disk, or a ValidationError for a non-finite float or a string UTF-8
cannot encode) leaves an existing output untouched; a device or pipe path
is written through, so it may receive part of a document or table before
such an error. A stream sink receives the finished text in one write.

Schemas:

    Report (JSON): mean_compute_utilization, utilization_stddev,
        total_power_w, node_count, created_node_count, request_count,
        unallocated_count, per_resource_mean_utilization {compute, memory,
        storage}, deadline_misses, energy_wh (null when not a timeline run)
    Report (CSV, one row): same fields flattened, per-resource means as
        mean_memory_utilization / mean_storage_utilization, empty cells
        for nulls; optional leading algorithm column
    Outcome document (JSON): algorithm, outcome {allocation (sorted by
        request id), unallocated, created_node_ids, trace}, report
    Snapshots (CSV): time_s, node_id, compute_util, memory_util,
        storage_util, power_w
    Comparison (CSV/JSON rows): algorithm, mean_util, util_stddev,
        total_power_w, node_count, unallocated_count
"""

from __future__ import annotations

import csv
import io
import math
import os
from contextlib import contextmanager
from itertools import accumulate, count
from json.encoder import encode_basestring
from pathlib import Path
from typing import IO, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .metrics import Report
from .model import ValidationError
from .scheduling import AllocationOutcome, DecisionRecord, ScanPrefix
from .simulator import SnapshotRow

TextStream = Union[str, Path, IO[str]]

REPORT_CSV_COLUMNS = (
    "mean_compute_utilization",
    "utilization_stddev",
    "total_power_w",
    "node_count",
    "created_node_count",
    "request_count",
    "unallocated_count",
    "mean_memory_utilization",
    "mean_storage_utilization",
    "deadline_misses",
    "energy_wh",
)

SNAPSHOT_CSV_COLUMNS = SnapshotRow._fields

COMPARISON_COLUMNS = (
    "algorithm",
    "mean_util",
    "util_stddev",
    "total_power_w",
    "node_count",
    "unallocated_count",
)


def format_float(value: float) -> str:
    """Canonical decimal form: 9 significant digits, -0 normalized."""

    if not math.isfinite(value):
        raise ValidationError(f"cannot serialize non-finite float {value!r}")
    text = "%.9g" % value
    return "0" if text == "-0" else text


def canonical_json(value: object) -> str:
    """Serialize a JSON tree deterministically.

    Dict keys keep insertion order (callers build them in schema order);
    floats go through format_float. Round-trip stable: parsing the output
    and re-serializing reproduces the same bytes.

    The tree is walked once into one list of chunks, joined at the end.
    Strings are escaped with encode_basestring (what json.dumps(s,
    ensure_ascii=False) applies to a str). A ScanPrefix is written as the
    array of its ids.
    """

    chunks: List[str] = []
    append = chunks.append

    def emit(item: object) -> None:
        if item is None:
            append("null")
        elif item is True:
            append("true")
        elif item is False:
            append("false")
        elif isinstance(item, str):
            append(encode_basestring(item))
        elif isinstance(item, int):
            append(str(item))
        elif isinstance(item, float):
            append(format_float(item))
        elif isinstance(item, dict):
            sep = "{"
            for key, child in item.items():
                append(sep)
                append(encode_basestring(str(key)))
                append(":")
                emit(child)
                sep = ","
            append("}" if sep == "," else "{}")
        elif isinstance(item, (list, tuple, ScanPrefix)):
            sep = "["
            for child in item:
                append(sep)
                emit(child)
                sep = ","
            append("]" if sep == "," else "[]")
        else:
            raise ValidationError(f"cannot serialize {type(item).__name__} canonically")

    emit(value)
    return "".join(chunks)


def report_to_dict(report: Report) -> Dict[str, object]:
    """Report as a JSON-ready dict in canonical key order."""

    per = report.per_resource_mean_utilization
    return {
        "mean_compute_utilization": float(report.mean_compute_utilization),
        "utilization_stddev": float(report.utilization_stddev),
        "total_power_w": float(report.total_power_w),
        "node_count": report.node_count,
        "created_node_count": report.created_node_count,
        "request_count": report.request_count,
        "unallocated_count": report.unallocated_count,
        "per_resource_mean_utilization": {
            "compute": float(per.compute),
            "memory": float(per.memory),
            "storage": float(per.storage),
        },
        "deadline_misses": report.deadline_misses,
        "energy_wh": float(report.energy_wh) if report.energy_wh is not None else None,
    }


def _decision_to_dict(record: DecisionRecord) -> Dict[str, object]:
    demand = record.demand
    entry: Dict[str, object] = {
        "request_id": record.request_id,
        "demand": {
            "compute": float(demand.compute),
            "memory_gib": float(demand.memory_gib),
            "storage_gib": float(demand.storage_gib),
        },
        "scanned": record.scanned,
        "chosen_node_id": record.chosen_node_id,
        "pct": None,
        "created_node": record.created_node,
        "reason": record.reason,
    }
    if record.pct is not None:
        entry["pct"] = {
            "compute": float(record.pct.compute),
            "memory": float(record.pct.memory),
            "storage": float(record.pct.storage),
        }
    if record.power_estimates:
        entry["power_estimates"] = [[node_id, float(watts)] for node_id, watts in record.power_estimates]
    return entry


def outcome_to_dict(outcome: AllocationOutcome) -> Dict[str, object]:
    """AllocationOutcome as a dict ready for canonical_json; allocation
    sorted by request id. Each trace entry's scanned is the record's own
    read-only sequence (a ScanPrefix), not a copy."""

    return {
        "allocation": {rid: outcome.allocation[rid] for rid in sorted(outcome.allocation)},
        "unallocated": list(outcome.unallocated),
        "created_node_ids": list(outcome.created_node_ids),
        "trace": [_decision_to_dict(record) for record in outcome.trace],
    }


# Text goes to the sink in slices of this many characters (a CSV table in
# pieces of about this many bytes), so writing never holds a second, encoded
# copy of a whole document.
_WRITE_SLICE = 1 << 20


@contextmanager
def open_text(source: TextStream) -> Iterator[IO[str]]:
    """A path opened for reading as UTF-8 text (line endings translated)
    and closed on exit, or a stream as given."""

    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as stream:
            yield stream
    else:
        yield source


def write_chunks(chunks: Iterable[Union[bytes, memoryview]], sink: TextStream) -> None:
    """Write a document's UTF-8 chunks to a sink (see the module docstring)."""

    try:
        if not isinstance(sink, (str, Path)):
            sink.write(b"".join(chunks).decode())
            return
        temp = None
        if os.path.isfile(sink) or not os.path.exists(sink):
            sink = os.path.realpath(sink)  # a link's target, beside which the temp file goes
            for attempt in count():
                try:
                    temp = f"{sink}.{os.getpid()}.{attempt}.tmp"
                    sink_fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                    break
                except FileExistsError:
                    pass
        try:
            with open(sink_fd if temp else sink, "wb", buffering=1 << 16) as stream:  # few large writes
                stream.writelines(chunks)
            if temp:
                os.replace(temp, sink)
        except BaseException:
            if temp:
                os.unlink(temp)
            raise
    except UnicodeEncodeError as exc:
        text = exc.object[exc.start : exc.end]
        raise ValidationError(f"cannot encode {text!r} as {exc.encoding}: {exc.reason}") from None


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _json_cell(value: object) -> str:
    # canonical_json's scalar cases in its order; any other value goes through it.
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    kind = type(value)
    if kind is str:
        return encode_basestring(value)
    if kind is int:
        return str(value)
    return format_float(value) if kind is float else canonical_json(value)


def _table_chunks(
    columns: Sequence[str], rows: Iterable[Sequence[object]], fmt: str, key: Optional[str]
) -> Iterator[bytes]:
    # Each row is encoded into data as it is written: csv.writer quotes a CSV
    # row, a JSON row is canonical_json's object for dict(zip(columns, row)),
    # each cell after its key's prefix. The table is never held as text.
    data = io.BytesIO()
    text = io.TextIOWrapper(data, encoding="utf-8", newline="", write_through=True)
    writerow = csv.writer(text, lineterminator="\n").writerow if fmt == "csv" else None
    if writerow is not None:
        writerow(columns)
    else:
        text.write("[" if key is None else "{%s:[" % encode_basestring(key))
        heads = [",%s:" % encode_basestring(column) for column in columns]
        heads[0] = "{" + heads[0][1:]
    for index, row in enumerate(rows):
        if writerow is not None:
            writerow([_cell(value) for value in row])
        else:
            cells = "".join([head + _json_cell(value) for head, value in zip(heads, row)])
            text.write(("," if index else "") + cells + "}")
        if data.tell() >= _WRITE_SLICE:
            yield data.getvalue()
            data.seek(0)
            data.truncate()
    if writerow is None:
        text.write("]\n" if key is None else "]}\n")
    yield data.getvalue()


def _write_table(
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
    fmt: str,
    sink: TextStream,
    key: Optional[str] = None,
) -> None:
    """Write rows (cells in column order) as a CSV table or as a canonical
    JSON list of row objects, given as {key: list} when key is set."""

    if fmt not in ("json", "csv"):
        raise ValidationError(f"format must be json or csv, got {fmt!r}")
    write_chunks(_table_chunks(columns, rows, fmt, key), sink)


def write_report(
    payload: Union[Report, Sequence[SnapshotRow]],
    fmt: str,
    sink: TextStream,
    *,
    algorithm: Optional[str] = None,
) -> None:
    """Write a Report or a snapshot series canonically.

    fmt is "json" or "csv". A Report becomes one canonical JSON document
    or a one-row summary CSV (with a leading algorithm column when given);
    a snapshot series becomes a CSV table or a JSON list of row objects.
    An empty snapshot series yields a header-only CSV.
    """

    if not isinstance(payload, Report):
        rows: Iterable[Sequence[object]] = payload  # each SnapshotRow is its cells
        if fmt == "json":  # every value but node_id as a float
            rows = ((float(time_s), node_id, *map(float, rest)) for time_s, node_id, *rest in payload)
        _write_table(SNAPSHOT_CSV_COLUMNS, rows, fmt, sink)
        return
    doc: Dict[str, object] = {} if algorithm is None else {"algorithm": algorithm}
    doc.update(report_to_dict(payload))
    if fmt == "json":
        # Encoded inside write_chunks, which reports a string UTF-8 cannot encode.
        write_chunks(map(str.encode, [canonical_json(doc) + "\n"]), sink)
        return
    per = doc["per_resource_mean_utilization"]
    doc["mean_memory_utilization"], doc["mean_storage_utilization"] = per["memory"], per["storage"]
    columns = (("algorithm",) if algorithm is not None else ()) + REPORT_CSV_COLUMNS
    _write_table(columns, [[doc[column] for column in columns]], fmt, sink)


def write_outcome_document(
    algorithm: str, outcome: AllocationOutcome, report: Report, sink: TextStream
) -> None:
    """One canonical JSON document holding an outcome and its report: the
    bytes of canonical_json({"algorithm", "outcome": outcome_to_dict(outcome),
    "report": report_to_dict(report)}) and a newline."""

    write_chunks(_outcome_chunks(algorithm, outcome, report), sink)


def _outcome_chunks(
    algorithm: str, outcome: AllocationOutcome, report: Report
) -> Iterator[Union[bytes, memoryview]]:
    # One fixed template per decision record, in outcome_to_dict's key order.
    # Text gathers in pending up to a scanned view, which is yielded as a
    # slice of the encoded bytes of its base list.
    escapes: Dict[str, str] = {}
    # Power estimates repeat few watt values: each is formatted once (a NaN
    # never matches a key, so format_float still refuses every one).
    watts: Dict[float, str] = {}

    def text(value: object) -> str:
        if type(value) is str:
            escaped = escapes.get(value)
            if escaped is None:
                escaped = escapes[value] = encode_basestring(value)
            return escaped
        return _json_cell(value)

    allocation = outcome.allocation
    head = '{"algorithm":%s,"outcome":{"allocation":{%s},"unallocated":[%s],"created_node_ids":[%s],"trace":['
    pending = head % (
        text(algorithm),
        ",".join([f"{text(str(rid))}:{text(allocation[rid])}" for rid in sorted(allocation)]),
        ",".join(map(text, outcome.unallocated)),
        ",".join(map(text, outcome.created_node_ids)),
    )
    base: object = None
    for index, record in enumerate(outcome.trace):
        demand, scanned, pct = record.demand, record.scanned, record.pct
        pending += '%s{"request_id":%s,"demand":{"compute":%s,"memory_gib":%s,"storage_gib":%s},"scanned":[' % (
            "," if index else "", text(record.request_id),
            format_float(demand.compute), format_float(demand.memory_gib), format_float(demand.storage_gib),
        )
        if isinstance(scanned, ScanPrefix) and scanned.length:
            if scanned.base is not base:  # a scan's views come in one run
                base, ends = scanned.base, None
                escaped = list(map(text, base))
                joined = memoryview(",".join(escaped).encode())
            view, length = joined, scanned.length
            if length < len(escaped):
                if ends is None:
                    ends = list(accumulate(len(item.encode()) for item in escaped))
                view = joined[: ends[length - 1] + length - 1]  # the ids and the commas between them
            yield pending.encode()
            yield view
            pending = ""
        else:
            pending += ",".join(map(text, scanned))
        pending += '],"chosen_node_id":%s,"pct":%s,"created_node":%s,"reason":%s' % (
            text(record.chosen_node_id),
            "null" if pct is None else '{"compute":%s,"memory":%s,"storage":%s}'
            % (format_float(pct.compute), format_float(pct.memory), format_float(pct.storage)),
            text(record.created_node), text(record.reason),
        )
        if record.power_estimates:
            pairs = [f"{text(node_id)},{watts.get(w) or watts.setdefault(w, format_float(w))}"
                     for node_id, w in record.power_estimates]
            pending += ',"power_estimates":[[%s]]' % "],[".join(pairs)
        pending += "}"
        if len(pending) >= _WRITE_SLICE:
            yield pending.encode()
            pending = ""
    yield f'{pending}]}},"report":{canonical_json(report_to_dict(report))}}}\n'.encode()


def write_comparison(named_reports: Sequence[Tuple[str, Report]], fmt: str, sink: TextStream) -> None:
    """Three-row (or n-row) comparison table, CSV or canonical JSON."""

    rows = (
        (name, float(report.mean_compute_utilization), float(report.utilization_stddev),
         float(report.total_power_w), report.node_count, report.unallocated_count)
        for name, report in named_reports
    )
    _write_table(COMPARISON_COLUMNS, rows, fmt, sink, key="rows")
