"""End-to-end CLI behavior: files written, exit codes, determinism."""

from __future__ import annotations

import json
import resource
import subprocess
import sys

import pytest

from gptsched import cli
from gptsched.cli import main
from gptsched.model import Node
from gptsched.scheduling import ClusterState
from gptsched.simulator import run_timeline

RESIDENT_CONFIG = {
    "cluster": [
        {"count": 1, "resident_utilization": {"compute": 0.5, "memory": 0.5, "storage": 0.5}},
        {"count": 1, "resident_utilization": {"compute": 0.2, "memory": 0.2, "storage": 0.2}},
    ],
    "autoscale": {"enabled": False},
}

# 20% of the default 1000/512/2000 capacity on every axis.
TWENTY_PCT_LINE = (
    '{"id":"r1","task_kind":"chat","model_params_b":0,"prompt_tokens":0,"output_tokens":0,'
    '"demand":{"compute":200.0,"memory_gib":102.4,"storage_gib":400.0}}\n'
)

TIMED_TRACE = (
    '{"id":"t1","task_kind":"qa","model_params_b":7,"prompt_tokens":100,"output_tokens":100,'
    '"arrival_s":0.0,"duration_s":60.0}\n'
    '{"id":"t2","task_kind":"chat","model_params_b":7,"prompt_tokens":100,"output_tokens":100,'
    '"arrival_s":30.0,"duration_s":60.0}\n'
)


@pytest.fixture()
def resident_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(RESIDENT_CONFIG), encoding="utf-8")
    return str(path)


@pytest.fixture()
def pct_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(TWENTY_PCT_LINE, encoding="utf-8")
    return str(path)


def test_gen_writes_deterministic_trace(tmp_path) -> None:
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["gen", "--count", "20", "--seed", "9", "--out", str(out1)]) == 0
    assert main(["gen", "--count", "20", "--seed", "9", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 20
    assert json.loads(lines[0])["id"] == "req-000001"


def test_gen_respects_config_generator_section(tmp_path) -> None:
    config = tmp_path / "config.json"
    config.write_text(
        '{"generator": {"request_count": 3, "seed": 5, "model_size_choices_b": [[13, 1.0]]}}',
        encoding="utf-8",
    )
    out = tmp_path / "t.jsonl"
    assert main(["gen", "--config", str(config), "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 3
    assert all(r["model_params_b"] == 13 for r in records)


def test_gen_invalid_count_exits_2(tmp_path, capsys) -> None:
    assert main(["gen", "--count", "0", "--out", str(tmp_path / "t.jsonl")]) == 2
    assert "gptsched:" in capsys.readouterr().err


def test_schedule_max_util_vs_load_balance(tmp_path, resident_config, pct_trace) -> None:
    out = tmp_path / "out.json"
    code = main([
        "schedule", "--workload", pct_trace, "--config", resident_config,
        "--algorithm", "max-util", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["algorithm"] == "max-util"
    assert doc["outcome"]["allocation"] == {"r1": "node-1"}
    assert doc["report"]["unallocated_count"] == 0

    code = main([
        "schedule", "--workload", pct_trace, "--config", resident_config,
        "--algorithm", "load-balance", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["outcome"]["allocation"] == {"r1": "node-2"}


def test_schedule_csv_format(tmp_path, resident_config, pct_trace) -> None:
    out = tmp_path / "out.csv"
    assert main([
        "schedule", "--workload", pct_trace, "--config", resident_config,
        "--algorithm", "max-util", "--format", "csv", "--out", str(out),
    ]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("algorithm,mean_compute_utilization,")
    assert lines[1].startswith("max-util,")


def test_schedule_unallocated_exits_3_and_threshold_override(tmp_path) -> None:
    trace = tmp_path / "big.jsonl"
    trace.write_text(
        '{"id":"r1","task_kind":"chat","model_params_b":0,"prompt_tokens":0,"output_tokens":0,'
        '"demand":{"compute":900.0,"memory_gib":0.0,"storage_gib":0.0}}\n',
        encoding="utf-8",
    )
    out = tmp_path / "out.json"
    # 90% exceeds the default 0.8 threshold everywhere, even on a fresh
    # autoscaled node: exit 3, report still written.
    code = main(["schedule", "--workload", str(trace), "--algorithm", "max-util", "--out", str(out)])
    assert code == 3
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["outcome"]["unallocated"] == ["r1"]
    assert doc["report"]["unallocated_count"] == 1

    assert main([
        "schedule", "--workload", str(trace), "--algorithm", "max-util",
        "--threshold", "1.0", "--out", str(out),
    ]) == 0
    assert main([
        "schedule", "--workload", str(trace), "--algorithm", "max-util",
        "--autoscale", "off", "--out", str(out),
    ]) == 3


def test_simulate_writes_report_and_snapshots(tmp_path) -> None:
    trace = tmp_path / "timed.jsonl"
    trace.write_text(TIMED_TRACE, encoding="utf-8")
    out_dir = tmp_path / "sim"
    code = main([
        "simulate", "--workload", str(trace), "--algorithm", "power",
        "--snapshot-interval", "30", "--out", str(out_dir),
    ])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["algorithm"] == "power"
    assert report["energy_wh"] is not None and report["energy_wh"] > 0.0
    assert report["deadline_misses"] == 0
    snapshot_lines = (out_dir / "snapshots.csv").read_text(encoding="utf-8").splitlines()
    assert snapshot_lines[0] == "time_s,node_id,compute_util,memory_util,storage_util,power_w"
    assert len(snapshot_lines) > 1

    csv_dir = tmp_path / "simcsv"
    assert main([
        "simulate", "--workload", str(trace), "--algorithm", "power",
        "--format", "csv", "--out", str(csv_dir),
    ]) == 0
    assert (csv_dir / "report.csv").exists() and (csv_dir / "snapshots.csv").exists()


def test_simulate_rejects_untimed_trace(tmp_path, capsys) -> None:
    trace = tmp_path / "untimed.jsonl"
    trace.write_text(TWENTY_PCT_LINE, encoding="utf-8")
    assert main([
        "simulate", "--workload", str(trace), "--algorithm", "max-util",
        "--out", str(tmp_path / "sim"),
    ]) == 2
    assert "lacks arrival_s/duration_s" in capsys.readouterr().err


def test_simulate_invalid_interval_exits_2(tmp_path, capsys) -> None:
    trace = tmp_path / "timed.jsonl"
    trace.write_text(TIMED_TRACE, encoding="utf-8")
    assert main([
        "simulate", "--workload", str(trace), "--algorithm", "max-util",
        "--snapshot-interval", "0", "--out", str(tmp_path / "sim"),
    ]) == 2
    assert "snapshot_interval_s" in capsys.readouterr().err


def test_simulate_departure_overflow_exits_2(tmp_path) -> None:
    # Run as a child with a timeout: an unchecked departure at t = inf
    # keeps the snapshot grid running forever.
    trace = tmp_path / "overflow.jsonl"
    trace.write_text(
        '{"id":"r1","task_kind":"chat","model_params_b":7,"prompt_tokens":1,"output_tokens":1,'
        '"arrival_s":1e308,"duration_s":1e308}\n',
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "gptsched.cli", "simulate", "--workload", str(trace),
         "--algorithm", "max-util", "--out", str(tmp_path / "sim")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "non-finite" in proc.stderr


def _limit_memory() -> None:
    # Caps only the child: an unrefused grid fails with MemoryError instead
    # of growing until the timeout.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_simulate_oversized_snapshot_grid_exits_2(tmp_path) -> None:
    trace = tmp_path / "timed.jsonl"
    trace.write_text(TIMED_TRACE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "gptsched.cli", "simulate", "--workload", str(trace),
         "--algorithm", "max-util", "--snapshot-interval", "1e-6", "--out", str(tmp_path / "sim")],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 2, proc.stderr
    assert "grid points" in proc.stderr and "larger interval" in proc.stderr
    assert not (tmp_path / "sim").exists()


def test_compare_writes_three_rows_identically(tmp_path) -> None:
    trace = tmp_path / "trace.jsonl"
    assert main(["gen", "--count", "30", "--seed", "4", "--out", str(trace)]) == 0
    outs = [tmp_path / "cmp1.csv", tmp_path / "cmp2.csv"]
    for out in outs:
        assert main(["compare", "--workload", str(trace), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    lines = outs[0].read_text(encoding="utf-8").splitlines()
    assert lines[0] == "algorithm,mean_util,util_stddev,total_power_w,node_count,unallocated_count"
    assert [line.split(",")[0] for line in lines[1:]] == ["max-util", "load-balance", "power"]


def test_compare_json_format_and_exit_3(tmp_path) -> None:
    trace = tmp_path / "big.jsonl"
    trace.write_text(
        '{"id":"r1","task_kind":"chat","model_params_b":0,"prompt_tokens":0,"output_tokens":0,'
        '"demand":{"compute":5000.0,"memory_gib":0.0,"storage_gib":0.0}}\n',
        encoding="utf-8",
    )
    out = tmp_path / "cmp.json"
    code = main([
        "compare", "--workload", str(trace), "--autoscale", "off",
        "--format", "json", "--out", str(out),
    ])
    assert code == 3
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert [row["algorithm"] for row in doc["rows"]] == ["max-util", "load-balance", "power"]
    assert all(row["unallocated_count"] == 1 for row in doc["rows"])


def test_missing_workload_file_exits_2(tmp_path, capsys) -> None:
    assert main([
        "schedule", "--workload", str(tmp_path / "nope.jsonl"),
        "--algorithm", "max-util", "--out", str(tmp_path / "out.json"),
    ]) == 2
    assert "gptsched:" in capsys.readouterr().err


def test_malformed_trace_exits_2_with_line_number(tmp_path, capsys) -> None:
    trace = tmp_path / "bad.jsonl"
    trace.write_text(TWENTY_PCT_LINE + "{broken\n", encoding="utf-8")
    assert main([
        "schedule", "--workload", str(trace),
        "--algorithm", "max-util", "--out", str(tmp_path / "out.json"),
    ]) == 2
    assert "line 2" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys) -> None:
    config = tmp_path / "config.json"
    config.write_text('{"scheduler": {"threshold": 2.0}}', encoding="utf-8")
    trace = tmp_path / "trace.jsonl"
    trace.write_text(TWENTY_PCT_LINE, encoding="utf-8")
    assert main([
        "schedule", "--workload", str(trace), "--config", str(config),
        "--algorithm", "max-util", "--out", str(tmp_path / "out.json"),
    ]) == 2
    assert "scheduler.threshold" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["config-threshold", "trace-task-kind"])
def test_a_huge_refused_value_is_echoed_in_1000_characters(tmp_path, capsys, where) -> None:
    config = tmp_path / "config.json"
    trace = tmp_path / "trace.jsonl"
    if where == "config-threshold":
        value: object = "x" * 1_000_000
        config.write_text(json.dumps({"scheduler": {"threshold": value}}), encoding="utf-8")
        trace.write_text(TWENTY_PCT_LINE, encoding="utf-8")
    else:
        value = list(range(100_000))
        config.write_text("{}", encoding="utf-8")
        trace.write_text(json.dumps({**json.loads(TWENTY_PCT_LINE), "task_kind": value}) + "\n", encoding="utf-8")
    assert main([
        "schedule", "--workload", str(trace), "--config", str(config),
        "--algorithm", "max-util", "--out", str(tmp_path / "out.json"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 1100
    assert f"... ({len(repr(value)) - 1000} more characters)" in err


def test_unknown_algorithm_is_a_usage_error(tmp_path, pct_trace) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["schedule", "--workload", pct_trace, "--algorithm", "fifo", "--out", "x"])
    assert excinfo.value.code == 2


def test_unknown_log_level_warns(tmp_path, pct_trace, monkeypatch, capsys) -> None:
    monkeypatch.setenv("GPTSCHED_LOG", "chatty")
    assert main(["gen", "--count", "1", "--out", str(tmp_path / "t.jsonl")]) == 0
    assert "ignoring unknown GPTSCHED_LOG" in capsys.readouterr().err


def test_console_module_subprocess(tmp_path) -> None:
    out = tmp_path / "t.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "gptsched.cli", "gen", "--count", "2", "--seed", "1",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text(encoding="utf-8").splitlines()) == 2


def test_unencodable_request_id_exits_2_and_keeps_previous_output(tmp_path, capsys) -> None:
    trace = tmp_path / "trace.jsonl"
    trace.write_text(
        '{"id":"req-\\ud800","task_kind":"chat","model_params_b":7,"prompt_tokens":10,"output_tokens":10}\n',
        encoding="utf-8",
    )
    out = tmp_path / "out.json"
    previous = b'{"previous": "output"}\n'
    out.write_bytes(previous)
    args = ["schedule", "--workload", str(trace), "--algorithm", "max-util", "--out", str(out)]
    assert main([*args, "--format", "json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gptsched: line 1:") and "UTF-8" in err
    assert out.read_bytes() == previous
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out.json", "trace.jsonl"]


# An integer literal with more digits than a float can hold: 1e400.
HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize(
    "command, config, trace_line, fragment",
    [
        ("schedule", '{"scheduler": {"threshold": %s}}' % HUGE_INT, TWENTY_PCT_LINE,
         "scheduler.threshold: must be finite"),
        ("gen", '{"generator": {"model_size_choices_b": [[%s, 1]]}}' % HUGE_INT, None,
         "generator.model_size_choices_b[0]: must be finite"),
        ("schedule", None, TWENTY_PCT_LINE.replace('"model_params_b":0', '"model_params_b":' + HUGE_INT),
         "line 1: field 'model_params_b' must be finite"),
        ("schedule", None, TWENTY_PCT_LINE.replace('"prompt_tokens":0', '"prompt_tokens":' + HUGE_INT),
         "line 1: field 'prompt_tokens' must be finite"),
    ],
    ids=["config-number", "config-size-pair", "trace-number", "trace-token-count"],
)
def test_integer_too_large_for_a_float_exits_2(tmp_path, capsys, command, config, trace_line, fragment) -> None:
    args = [command, "--out", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "config.json").write_text(config, encoding="utf-8")
        args += ["--config", str(tmp_path / "config.json")]
    if command == "schedule":
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line, encoding="utf-8")
        args += ["--workload", str(trace), "--algorithm", "max-util"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("gptsched: ") and fragment in err


def _digit_limit_fragment(path_fragment: str) -> str:
    """What a 5000-digit integer literal is refused with on this interpreter.

    Python 3.11+ caps int/str conversion at 4300 digits by default, so the
    JSON parser refuses the literal; without the cap it parses, and the
    number reader refuses it as too large for a float.
    """

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return "valid JSON" if 0 < limit < 5000 else path_fragment


def test_integer_past_the_digit_limit_in_config_exits_2(tmp_path, capsys, pct_trace) -> None:
    config = tmp_path / "config.json"
    config.write_text('{"scheduler": {"threshold": 1%s}}' % ("0" * 4999), encoding="utf-8")
    assert main([
        "schedule", "--workload", pct_trace, "--config", str(config),
        "--algorithm", "max-util", "--out", str(tmp_path / "out.json"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gptsched: ")
    assert _digit_limit_fragment("scheduler.threshold: must be finite") in err


def test_integer_past_the_digit_limit_in_trace_exits_2(tmp_path, capsys) -> None:
    trace = tmp_path / "trace.jsonl"
    trace.write_text(
        TWENTY_PCT_LINE + TWENTY_PCT_LINE.replace('"r1"', '"r2"').replace(
            '"prompt_tokens":0', '"prompt_tokens":1' + "0" * 4999
        ),
        encoding="utf-8",
    )
    assert main([
        "schedule", "--workload", str(trace), "--algorithm", "max-util",
        "--out", str(tmp_path / "out.json"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gptsched: line 2: ")
    assert _digit_limit_fragment("field 'prompt_tokens' must be finite") in err


def test_simulate_infinite_interval_exits_2(tmp_path, capsys) -> None:
    # 0 * inf is NaN, so an infinite grid would silently write no snapshot.
    trace = tmp_path / "timed.jsonl"
    trace.write_text(TIMED_TRACE, encoding="utf-8")
    assert main([
        "simulate", "--workload", str(trace), "--algorithm", "max-util",
        "--snapshot-interval", "inf", "--out", str(tmp_path / "sim"),
    ]) == 2
    assert "snapshot_interval_s must be finite" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_trace_that_is_not_utf8_exits_2(tmp_path, capsys) -> None:
    trace = tmp_path / "bad.jsonl"
    trace.write_bytes(b"\xff\xfe" + TWENTY_PCT_LINE.encode())
    assert main([
        "schedule", "--workload", str(trace), "--algorithm", "max-util",
        "--out", str(tmp_path / "out.json"),
    ]) == 2
    assert capsys.readouterr().err == "gptsched: line 1: not valid UTF-8: byte 0xff (invalid start byte)\n"
    assert not (tmp_path / "out.json").exists()


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys) -> None:
    config = tmp_path / "config.json"
    config.write_bytes(b'{"cluster": [{"count": 2}], "name": "\xe9"}')
    trace = tmp_path / "trace.jsonl"
    trace.write_text(TWENTY_PCT_LINE, encoding="utf-8")
    assert main([
        "schedule", "--workload", str(trace), "--config", str(config),
        "--algorithm", "max-util", "--out", str(tmp_path / "out.json"),
    ]) == 2
    assert capsys.readouterr().err == (
        "gptsched: config is not valid UTF-8: 'utf-8' codec can't decode byte 0xe9 "
        "in position 37: invalid continuation byte\n"
    )
    assert not (tmp_path / "out.json").exists()


def test_schedule_csv_through_a_symlink_writes_its_target(tmp_path, resident_config, pct_trace) -> None:
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "target.csv"
    target.write_text("previous output\n", encoding="utf-8")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    direct = tmp_path / "direct.csv"
    args = ["schedule", "--workload", pct_trace, "--config", resident_config, "--algorithm", "max-util"]
    args += ["--format", "csv"]
    assert main([*args, "--out", str(link)]) == 0
    assert main([*args, "--out", str(direct)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == direct.read_bytes()


@pytest.mark.parametrize(
    "document, extra, field",
    [
        ({"cluster": [{"count": 100_001}]}, [], "cluster[0].count"),
        ({"cluster": [{"count": 60_000}, {"count": 40_001}]}, [], "cluster[1].count"),
        ({}, ["--count", "1000001"], "request_count"),
    ],
    ids=["one-group", "two-groups", "gen-count"],
)
def test_gen_refuses_sizes_over_the_documented_bounds(tmp_path, capsys, document, extra, field) -> None:
    # Refused before anything is allocated, so no memory limit is needed.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document), encoding="utf-8")
    out = tmp_path / "t.jsonl"
    assert main(["gen", "--config", str(config), *extra, "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_gen_accepts_sizes_at_the_documented_bounds(tmp_path) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cluster": [{"count": 60_000}, {"count": 40_000}]}), encoding="utf-8")
    assert main(["gen", "--config", str(config), "--count", "2", "--out", str(tmp_path / "t.jsonl")]) == 0


def test_simulate_failing_snapshots_keep_an_existing_report(tmp_path, capsys) -> None:
    # snapshots.csv is written first: when it cannot be replaced (here it is
    # a directory), the run exits 2 before report.json is touched.
    trace = tmp_path / "timed.jsonl"
    trace.write_text(TIMED_TRACE, encoding="utf-8")
    out_dir = tmp_path / "sim"
    (out_dir / "snapshots.csv").mkdir(parents=True)
    (out_dir / "report.json").write_bytes(b"previous report\n")
    code = main([
        "simulate", "--workload", str(trace), "--algorithm", "max-util",
        "--snapshot-interval", "30", "--out", str(out_dir),
    ])
    assert code == 2
    assert "snapshots.csv" in capsys.readouterr().err
    assert (out_dir / "report.json").read_bytes() == b"previous report\n"


def test_trace_nested_deeper_than_the_stack_exits_2(tmp_path, capsys) -> None:
    trace = tmp_path / "deep.jsonl"
    trace.write_text(TWENTY_PCT_LINE + "[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
    assert main([
        "schedule", "--workload", str(trace), "--algorithm", "max-util",
        "--out", str(tmp_path / "out.json"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gptsched: line 2: invalid JSON: maximum recursion depth exceeded")
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def test_config_nested_deeper_than_the_stack_exits_2(tmp_path, capsys, pct_trace) -> None:
    config = tmp_path / "config.json"
    config.write_text('{"cluster": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    assert main([
        "schedule", "--workload", pct_trace, "--config", str(config),
        "--algorithm", "max-util", "--out", str(tmp_path / "out.json"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gptsched: config is not valid JSON: maximum recursion depth exceeded")
    assert not (tmp_path / "out.json").exists()


def test_disabled_autoscale_section_is_still_validated(tmp_path, capsys, pct_trace) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"autoscale": {"enabled": False, "capacity": {"compute": -1}}}), encoding="utf-8")
    assert main([
        "schedule", "--workload", pct_trace, "--config", str(config),
        "--algorithm", "max-util", "--out", str(tmp_path / "out.json"),
    ]) == 2
    assert capsys.readouterr().err.startswith("gptsched: autoscale.capacity: ")
    assert not (tmp_path / "out.json").exists()


def test_autoscale_on_over_a_disabled_section_provisions_from_the_first_group(
    tmp_path, pct_trace
) -> None:
    # Both initial nodes are too full for the request; the disabled section's
    # own template (250 compute units, 50-60 W) is not the one used.
    resident = {"compute": 0.7, "memory": 0.7, "storage": 0.7}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "cluster": [
            {"count": 1, "resident_utilization": resident},
            {"count": 1, "capacity": {"compute": 2000}, "resident_utilization": resident},
        ],
        "autoscale": {"enabled": False, "capacity": {"compute": 250}, "p_idle_w": 50, "p_max_w": 60},
    }), encoding="utf-8")
    common = ["schedule", "--workload", pct_trace, "--config", str(config), "--algorithm", "max-util"]
    assert main([*common, "--out", str(tmp_path / "off.json")]) == 3
    assert main([*common, "--autoscale", "on", "--out", str(tmp_path / "on.json")]) == 0
    document = json.loads((tmp_path / "on.json").read_text(encoding="utf-8"))
    assert document["outcome"]["created_node_ids"] == ["auto-1"]
    # 200 of the first group's 1000 compute units, at 100 + 300 x 0.2 W.
    assert document["outcome"]["trace"][0]["pct"]["compute"] == 0.2
    assert document["report"]["total_power_w"] == 160 + 2 * (100 + 300 * 0.7)


def _set_log_level(monkeypatch, level) -> None:
    if level is None:
        monkeypatch.delenv("GPTSCHED_LOG", raising=False)
    else:
        monkeypatch.setenv("GPTSCHED_LOG", level)


@pytest.mark.parametrize(
    "timing", [{}, {"arrival_s": 1e308, "duration_s": 1e308}], ids=["untimed", "overflow"]
)
def test_simulate_echoes_a_huge_refused_id_in_bounded_length(tmp_path, capsys, timing) -> None:
    trace = tmp_path / "trace.jsonl"
    line = {**json.loads(TWENTY_PCT_LINE), "id": "x" * 1_000_000, **timing}
    trace.write_text(json.dumps(line) + "\n", encoding="utf-8")
    assert main([
        "simulate", "--workload", str(trace), "--algorithm", "max-util", "--out", str(tmp_path / "sim"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 1100
    assert f"... ({1_000_002 - 1000} more characters)" in err


@pytest.mark.parametrize("levels", [(None, "info"), ("info", None)])
def test_every_main_call_reads_the_log_level(tmp_path, monkeypatch, capsys, levels) -> None:
    out = tmp_path / "t.jsonl"
    for level in levels:
        _set_log_level(monkeypatch, level)
        assert main(["gen", "--count", "2", "--seed", "1", "--out", str(out)]) == 0
        expected = "" if level is None else f"INFO gptsched: wrote 2 requests to {out}\n"
        assert capsys.readouterr().err == expected


def test_compare_notes_each_batch_then_the_table(tmp_path, monkeypatch, capsys) -> None:
    trace = tmp_path / "timed.jsonl"
    trace.write_text(TIMED_TRACE, encoding="utf-8")
    out = tmp_path / "cmp.csv"
    argv = ["compare", "--workload", str(trace), "--out", str(out)]
    _set_log_level(monkeypatch, None)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    _set_log_level(monkeypatch, "info")
    assert main(argv) == 0
    assert capsys.readouterr().err.splitlines() == [
        "INFO gptsched: batch max-util: 2 requests, 0 unallocated, 4 nodes",
        "INFO gptsched: batch load-balance: 2 requests, 0 unallocated, 4 nodes",
        "INFO gptsched: batch power: 2 requests, 0 unallocated, 4 nodes",
        f"INFO gptsched: compare: wrote {out}",
    ]


@pytest.mark.parametrize(
    "level, retain, removed",
    [
        (None, 1, []),
        ("info", 1, ["node-1 at t=70.000", "node-2 at t=100.000"]),
        # retain_min_nodes blocks the check on node-2: that is no event, and prints nothing.
        ("debug", 3, ["node-1 at t=70.000"]),
    ],
)
def test_simulate_notes_each_removal_before_its_summary(
    tmp_path, monkeypatch, capsys, level, retain, removed
) -> None:
    trace = tmp_path / "timed.jsonl"
    trace.write_text(TIMED_TRACE, encoding="utf-8")
    config = tmp_path / "config.json"
    adaptor = {"scale_down_grace_s": 10, "retain_min_nodes": retain}
    config.write_text(json.dumps({"cluster": [{"count": 4}], "adaptor": adaptor}), encoding="utf-8")
    out_dir = tmp_path / "sim"
    _set_log_level(monkeypatch, level)
    callbacks = []

    def recording_run_timeline(*args, **kwargs):
        callbacks.append(kwargs["on_event"])
        return run_timeline(*args, **kwargs)

    monkeypatch.setattr(cli, "run_timeline", recording_run_timeline)
    assert main([
        "simulate", "--workload", str(trace), "--config", str(config), "--algorithm", "load-balance",
        "--snapshot-interval", "30", "--out", str(out_dir),
    ]) == 0
    err = capsys.readouterr().err
    if level is None:  # the default run makes no call per event
        assert err == "" and callbacks == [None]
        return
    assert err.splitlines() == [f"INFO gptsched: scaled down node {node}" for node in removed] + [
        f"INFO gptsched: simulate load-balance: 15 snapshots, 3.361333 Wh, wrote {out_dir}"
    ]


@pytest.fixture(scope="module")
def timed_trace(tmp_path_factory):
    """3000 seed-11 requests with Poisson arrivals and lognormal durations."""

    directory = tmp_path_factory.mktemp("timed")
    config = directory / "gen.json"
    generator = {"arrival_rate_per_s": 8, "duration": {"mu": 4, "sigma": 0.5}}
    config.write_text(json.dumps({"generator": generator}), encoding="utf-8")
    trace = directory / "trace.jsonl"
    assert main(["gen", "--config", str(config), "--count", "3000", "--seed", "11", "--out", str(trace)]) == 0
    return trace


@pytest.mark.parametrize(
    "argv, declared",
    [
        (["schedule", "--algorithm", "max-util", "--format", "csv"], 4),
        (["schedule", "--algorithm", "power", "--format", "json"], 4),
        (["compare"], 4),
        (["simulate", "--algorithm", "load-balance", "--snapshot-interval", "600"], 100),
    ],
    ids=["schedule-csv", "schedule-json", "compare", "simulate"],
)
def test_cli_builds_only_the_configs_nodes(tmp_path, monkeypatch, timed_trace, argv, declared) -> None:
    config = tmp_path / "config.json"
    # A timeline keeps half its nodes past the run, so that its report has nodes to read.
    document = {"cluster": [{"count": declared}], "adaptor": {"retain_min_nodes": declared // 2}}
    config.write_text(json.dumps(document), encoding="utf-8")
    counts = {"Node": 0, "_node": 0}
    post_init, view = Node.__post_init__, ClusterState._node

    def counting_post_init(self) -> None:
        counts["Node"] += 1
        post_init(self)

    def counting_view(self, i):
        counts["_node"] += 1
        return view(self, i)

    monkeypatch.setattr(Node, "__post_init__", counting_post_init)
    monkeypatch.setattr(ClusterState, "_node", counting_view)
    _set_log_level(monkeypatch, None)
    out = tmp_path / ("sim" if argv[0] == "simulate" else "out")
    code = main(argv + ["--workload", str(timed_trace), "--config", str(config), "--out", str(out)])
    assert code in (0, 3)
    assert counts == {"Node": declared, "_node": 0}
