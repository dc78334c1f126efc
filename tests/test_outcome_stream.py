"""The outcome document written straight from the decision records.

write_outcome_document must produce exactly the bytes of the dict form
(canonical_json over outcome_to_dict and report_to_dict) for any real
scheduler outcome, to a path and to a stream. A path sink is written
through a temporary sibling that replaces the path only on success.
"""

from __future__ import annotations

import errno
import json
import io
import os
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptsched import (
    GeneratorSpec,
    SchedulerConfig,
    Threshold,
    ValidationError,
    default_config,
    generate_synthetic,
)
from gptsched import reportio
from gptsched.reportio import canonical_json, outcome_to_dict, report_to_dict, write_outcome_document
from gptsched.scheduling import ALGORITHMS
from gptsched.simulator import run_batch

from helpers import node, request, template

# Characters that need escaping or take two to four bytes in UTF-8, so a
# slice taken at a character offset instead of a byte offset shows.
_ID_CHARS = ['"', "\\", "\n", "\x00", "\x1f", "\u00fc", "\u00a0", "\u2028", "\U0001f600", "a", "-", "7"]
_ids = st.text(alphabet=st.sampled_from(_ID_CHARS), min_size=1, max_size=6)
_utils = st.tuples(*[st.sampled_from([0.0, 0.1, 0.5, 0.75, 0.79])] * 3)
_demands = st.tuples(*[st.sampled_from([0.0, 1.0, 7.5, 30.0, 55.0, 150.0])] * 3)


def _expected(algorithm, outcome, report) -> str:
    doc = {"algorithm": algorithm, "outcome": outcome_to_dict(outcome), "report": report_to_dict(report)}
    return canonical_json(doc) + "\n"


def _run(algorithm, node_specs, request_specs, *, autoscale=True, resort=False):
    nodes = [node(node_id, template(), util=util) for node_id, util in node_specs]
    queue = [request(rid, *demand) for rid, demand in request_specs]
    config = SchedulerConfig(
        threshold=Threshold(0.8),
        autoscale_template=template() if autoscale else None,
        resort_after_each_allocation=resort,
    )
    return run_batch(queue, nodes, algorithm, config)


def _written(algorithm, outcome, report):
    stream = io.StringIO()
    write_outcome_document(algorithm, outcome, report, stream)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "outcome.json"
        write_outcome_document(algorithm, outcome, report, path)
        assert os.listdir(directory) == ["outcome.json"]
        return stream.getvalue(), path.read_bytes()


@settings(max_examples=150, deadline=None)
@given(
    algorithm=st.sampled_from(sorted(ALGORITHMS)),
    node_specs=st.lists(st.tuples(_ids, _utils), max_size=6, unique_by=lambda spec: spec[0]),
    request_specs=st.lists(st.tuples(_ids, _demands), max_size=14, unique_by=lambda spec: spec[0]),
    autoscale=st.booleans(),
    resort=st.booleans(),
)
def test_outcome_document_equals_dict_form(algorithm, node_specs, request_specs, autoscale, resort) -> None:
    # Covers rejections (150 exceeds a whole node), created nodes, empty
    # scans (no nodes at all) and empty traces (no requests).
    outcome, report = _run(algorithm, node_specs, request_specs, autoscale=autoscale, resort=resort)
    expected = _expected(algorithm, outcome, report)
    text, data = _written(algorithm, outcome, report)
    assert text == expected
    assert data == expected.encode("utf-8")


def test_outcome_document_covers_every_record_shape() -> None:
    node_specs = [("n\u00fc\"de", (0.75, 0.75, 0.75)), ("n\\\U0001f600", (0.0, 0.0, 0.0))]
    request_specs = [
        ("big\u2028", (150.0, 0.0, 0.0)),
        ("a", (30.0, 30.0, 30.0)),
        ("b\x00", (55.0, 55.0, 55.0)),
        ("c", (1.0, 1.0, 1.0)),
        ("d", (55.0, 55.0, 55.0)),
        ("e", (55.0, 55.0, 55.0)),
    ]
    for algorithm in sorted(ALGORITHMS):
        outcome, report = _run(algorithm, node_specs, request_specs)
        assert outcome.unallocated == ("big\u2028",)
        assert outcome.created_node_ids
        if algorithm == "power":
            assert any(record.power_estimates for record in outcome.trace)
        expected = _expected(algorithm, outcome, report)
        assert _written(algorithm, outcome, report) == (expected, expected.encode("utf-8"))
        empty, empty_report = _run(algorithm, [], [])
        assert _written(algorithm, empty, empty_report)[0] == _expected(algorithm, empty, empty_report)
        scanless, scanless_report = _run(algorithm, [], [("r", (1.0, 1.0, 1.0))], autoscale=False)
        assert len(scanless.trace[0].scanned) == 0
        expected = _expected(algorithm, scanless, scanless_report)
        assert _written(algorithm, scanless, scanless_report)[0] == expected


def _power_outcome():
    node_specs = [(f"node-{i}", (0.1 * (i % 5), 0.0, 0.0)) for i in range(8)]
    request_specs = [(f"r{j:02d}", (7.5, 1.0, 1.0)) for j in range(40)]
    return _run("power", node_specs, request_specs)


@pytest.mark.parametrize("write_slice", [1, 7, 64])
def test_text_between_scanned_views_is_flushed_at_the_write_slice(monkeypatch, write_slice) -> None:
    # Records with no scanned view gather in one pending text, which leaves
    # once it reaches the write slice; a view flushes it before that.
    monkeypatch.setattr(reportio, "_WRITE_SLICE", write_slice)
    nodes = [node(f"node-{i}", template(), util=(0.1 * (i % 5), 0.0, 0.0)) for i in range(8)]
    queue = [request(f"r{j:02d}", 7.5, 1.0, 1.0) for j in range(40)]
    config = SchedulerConfig(threshold=Threshold(0.8), autoscale_template=template(), record_scans=False)
    bare, bare_report = run_batch(queue, nodes, "max-util", config)
    assert all(record.scanned == () for record in bare.trace)
    for algorithm, (outcome, report) in (("max-util", (bare, bare_report)), ("power", _power_outcome())):
        expected = _expected(algorithm, outcome, report).encode("utf-8")
        text, data = _written(algorithm, outcome, report)
        assert text.encode("utf-8") == data == expected


def _previous_output(tmp_path: Path) -> Path:
    path = tmp_path / "out.json"
    path.write_bytes(b"previous output\n")
    return path


def test_non_finite_estimate_mid_trace_leaves_existing_output(tmp_path) -> None:
    outcome, report = _power_outcome()
    trace = list(outcome.trace)
    middle = len(trace) // 2
    assert trace[middle].power_estimates
    node_id, _ = trace[middle].power_estimates[0]
    trace[middle] = replace(trace[middle], power_estimates=((node_id, float("nan")),))
    broken = replace(outcome, trace=tuple(trace))
    path = _previous_output(tmp_path)
    with pytest.raises(ValidationError, match="non-finite"):
        write_outcome_document("power", broken, report, path)
    assert path.read_bytes() == b"previous output\n"
    assert os.listdir(tmp_path) == ["out.json"]
    with pytest.raises(ValidationError, match="non-finite"):
        write_outcome_document("power", broken, report, io.StringIO())


def test_write_error_leaves_existing_output(tmp_path, monkeypatch) -> None:
    outcome, report = _power_outcome()
    real_open = open

    class FullDisk:
        """A file whose third write fails as a full disk would."""

        def __init__(self, stream) -> None:
            self.stream, self.writes = stream, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc_info) -> None:
            self.stream.close()

        def write(self, chunk) -> int:
            self.writes += 1
            if self.writes == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.stream.write(chunk)

        def writelines(self, chunks) -> None:
            for chunk in chunks:
                self.write(chunk)

    def failing_open(*args, **kwargs) -> FullDisk:
        return FullDisk(real_open(*args, **kwargs))

    monkeypatch.setattr(reportio, "open", failing_open, raising=False)
    path = _previous_output(tmp_path)
    with pytest.raises(OSError, match="No space left"):
        write_outcome_document("power", outcome, report, path)
    assert path.read_bytes() == b"previous output\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_successful_write_replaces_output_and_leaves_no_temp_file(tmp_path) -> None:
    outcome, report = _power_outcome()
    path = _previous_output(tmp_path)
    # A temporary file left by an earlier run that was killed is skipped,
    # not reused or removed.
    stale = tmp_path / f"out.json.{os.getpid()}.0.tmp"
    stale.write_bytes(b"stale")
    write_outcome_document("power", outcome, report, path)
    assert path.read_text(encoding="utf-8") == _expected("power", outcome, report)
    assert sorted(os.listdir(tmp_path)) == ["out.json", stale.name]
    assert stale.read_bytes() == b"stale"
    stale.unlink()
    write_outcome_document("power", outcome, report, str(path))
    assert os.listdir(tmp_path) == ["out.json"]


def test_device_path_is_written_through() -> None:
    outcome, report = _power_outcome()
    write_outcome_document("power", outcome, report, os.devnull)
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


def test_string_that_utf8_cannot_encode_fails_cleanly(tmp_path) -> None:
    outcome, report = _run("max-util", [("n\ud800", (0.0, 0.0, 0.0))], [("r", (1.0, 1.0, 1.0))])
    path = _previous_output(tmp_path)
    for sink in (path, io.StringIO()):
        with pytest.raises(ValidationError, match=re.escape("cannot encode '\\ud800' as utf-8")):
            write_outcome_document("max-util", outcome, report, sink)
    assert path.read_bytes() == b"previous output\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_path_sink_memory_stays_below_half_the_document(tmp_path) -> None:
    config = default_config()
    workload = generate_synthetic(GeneratorSpec(request_count=2000, seed=7))
    nodes = list(config.initial_nodes)
    outcome, report = run_batch(workload, nodes, "max-util", config.scheduler, coeffs=config.coefficients)
    assert len(outcome.trace) >= 2000 and len(nodes) >= 100
    path = tmp_path / "outcome.json"
    tracemalloc.start()
    try:
        write_outcome_document("max-util", outcome, report, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size / 2, (peak, size)


@pytest.mark.parametrize("dangling", [False, True])
def test_symlinked_output_writes_its_target(tmp_path, dangling) -> None:
    # The temporary file goes beside the link's target and replaces the
    # target; the link stays a link. A dangling link creates its target,
    # as open() would.
    outcome, report = _power_outcome()
    real = tmp_path / "real"
    real.mkdir()
    target = real / "target.json"
    if not dangling:
        target.write_bytes(b"previous output\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    write_outcome_document("power", outcome, report, str(link))
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8") == _expected("power", outcome, report)
    assert sorted(os.listdir(tmp_path)) == ["link.json", "real"]
    assert os.listdir(real) == ["target.json"]


@settings(max_examples=100, deadline=None)
@given(
    algorithm=st.sampled_from(sorted(ALGORITHMS)),
    node_specs=st.lists(st.tuples(_ids, _utils), max_size=6, unique_by=lambda spec: spec[0]),
    request_specs=st.lists(st.tuples(_ids, _demands), max_size=14, unique_by=lambda spec: spec[0]),
    autoscale=st.booleans(),
    resort=st.booleans(),
)
def test_outcome_document_round_trips_and_is_deterministic(
    algorithm, node_specs, request_specs, autoscale, resort
) -> None:
    # Small random workloads with rejections and created nodes: parsing the
    # document and writing the tree again gives the same text, and
    # scheduling the same inputs again writes the same bytes.
    first = _written(algorithm, *_run(algorithm, node_specs, request_specs, autoscale=autoscale, resort=resort))
    again = _written(algorithm, *_run(algorithm, node_specs, request_specs, autoscale=autoscale, resort=resort))
    text = first[0]
    assert canonical_json(json.loads(text)) + "\n" == text
    assert again == first
