"""The trace read once: placement and the timeline keep no request past its placement.

read_trace yields each request as its line is read, so a refusal of a
later line is raised while the schedulers or the timeline are still
reading. Placement keeps a refusal of its own until the whole queue is
read, so a streamed trace's refusals come in the order a whole-trace load
gives them. schedule and simulate load the whole trace and hand the list
over, taking each request off it as it is read.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptsched import (
    ALGORITHMS,
    AdaptorPolicy,
    GptRequest,
    SchedulerConfig,
    TaskKind,
    UnprofilableRequestError,
    ValidationError,
    load_trace,
    read_trace,
    run_batch,
    run_timeline,
    schedule_max_util,
)
from gptsched import cli
from gptsched.workload import GeneratorSpec, LognormalSpec, TraceParseError, generate_synthetic, write_trace

from helpers import node, request
from test_conservation_modes import _configs, _demand, _nodes


def _line(request_id: str, params: float = 7.0, prompt: int = 100, timed: bool = True, arrival: float = 0.0) -> str:
    record: Dict[str, object] = {
        "id": request_id, "task_kind": "qa", "model_params_b": params, "prompt_tokens": prompt, "output_tokens": 100,
    }
    if timed:
        record.update(arrival_s=arrival, duration_s=5.0)
    return json.dumps(record)


# Profiled compute 0.002 * 1e300 * (10**300 + 100) overflows to inf.
OVERFLOW = _line("r1", params=1e300, prompt=10**300)
GOOD = _line("r2", arrival=1.0)
RESIDENT = _line("resident-node-1")  # the id of node-1's resident allocation
UNTIMED = _line("r1", timed=False)
BAD = "{"
RESIDENT_CONFIG = {"cluster": [{"count": 2, "resident_utilization": {"compute": 0.1, "memory": 0.1, "storage": 0.1}}]}

BAD_LINE_3 = "gptsched: line 3: invalid JSON: Expecting property name enclosed in double quotes\n"
OVERFLOWED = "gptsched: compute must be finite, got inf\n"
ALREADY_PLACED = "gptsched: request 'resident-node-1' is already allocated on a node\n"
NOT_EMPTY = (
    "gptsched: timeline initial node 'node-1' must start empty; pre-existing allocations have no departure times\n"
)
MODES = ("schedule-json", "schedule-csv", "simulate")

# name: (trace lines, config, extra simulate flags, {mode: (exit code, stderr)}), as
# the CLI printed them when it loaded the whole trace before anything else.
PRECEDENCE = {
    "overflow-then-bad-line": ([OVERFLOW, GOOD, BAD], None, (), dict.fromkeys(MODES, (2, BAD_LINE_3))),
    "overflow": ([OVERFLOW, GOOD], None, (), dict.fromkeys(MODES, (2, OVERFLOWED))),
    "resident-then-bad-line": ([RESIDENT, GOOD, BAD], RESIDENT_CONFIG, (), dict.fromkeys(MODES, (2, BAD_LINE_3))),
    "resident": ([RESIDENT, GOOD], RESIDENT_CONFIG, (), {
        "schedule-json": (2, ALREADY_PLACED), "schedule-csv": (2, ALREADY_PLACED), "simulate": (2, NOT_EMPTY),
    }),
    "resident-then-overflow": ([RESIDENT, OVERFLOW], RESIDENT_CONFIG, (), {
        "schedule-json": (2, ALREADY_PLACED), "schedule-csv": (2, ALREADY_PLACED), "simulate": (2, NOT_EMPTY),
    }),
    "untimed-then-bad-line": ([UNTIMED, GOOD, BAD], None, (), dict.fromkeys(MODES, (2, BAD_LINE_3))),
    "untimed": ([UNTIMED, GOOD], None, (), {
        "schedule-json": (0, ""), "schedule-csv": (0, ""),
        "simulate": (2, "gptsched: request 'r1' lacks arrival_s/duration_s\n"),
    }),
    "duplicate-after-overflow": (
        [GOOD, OVERFLOW, GOOD, BAD], None, (),
        dict.fromkeys(MODES, (2, "gptsched: line 3: duplicate request id 'r2' (first seen on line 1)\n")),
    ),
    "bad-interval-and-bad-line": ([GOOD, BAD], None, ("--snapshot-interval", "0"), {
        "simulate": (2, "gptsched: line 2: invalid JSON: Expecting property name enclosed in double quotes\n"),
    }),
    "bad-interval": ([GOOD], None, ("--snapshot-interval", "0"), {
        "simulate": (2, "gptsched: snapshot_interval_s must be finite and > 0, got 0.0\n"),
    }),
}


def _argv(mode: str, trace: Path, out: Path, config: Optional[Path] = None) -> List[str]:
    command, _, output_format = mode.partition("-")
    argv = [command, "--workload", str(trace), "--algorithm", "max-util", "--out", str(out)]
    if output_format:
        argv += ["--format", output_format]
    if config is not None:
        argv += ["--config", str(config)]
    return argv


@pytest.mark.parametrize(
    "case, mode", [(case, mode) for case, (*_, expected) in PRECEDENCE.items() for mode in expected]
)
def test_the_cli_keeps_the_whole_trace_refusal_order(case: str, mode: str, tmp_path: Path) -> None:
    lines, config, extra, expected = PRECEDENCE[case]
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    config_path = None
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(_argv(mode, trace, tmp_path / "out", config_path) + list(extra))
    assert (code, stderr.getvalue()) == expected[mode]


def _timed_trace(path: Path, count: int) -> Path:
    spec = GeneratorSpec(request_count=count, seed=11, arrival_rate_per_s=8.0, duration_dist=LognormalSpec(4.0, 0.5))
    write_trace(generate_synthetic(spec), path)
    return path


def test_schedule_and_simulate_hand_the_loaded_trace_over(monkeypatch: pytest.MonkeyPatch, tmp_path: Path) -> None:
    # perfbench/tracer.py counts the requests cli.load_trace returns and takes
    # the length of every queue a scheduler is given; both stay sized.
    trace = _timed_trace(tmp_path / "trace.jsonl", 50)
    loaded: List[int] = []
    queues: List[list] = []

    def load(source: object) -> list:
        requests = load_trace(source)
        loaded.append(len(requests))
        return requests

    def sized(scheduler: Callable[..., object]) -> Callable[..., object]:
        def schedule(queue: list, *args: object, **kwargs: object) -> object:
            queues.append(queue)
            length = len(queue)
            outcome = scheduler(queue, *args, **kwargs)
            assert length == len(outcome.trace)  # type: ignore[attr-defined]
            return outcome

        return schedule

    monkeypatch.setattr(cli, "load_trace", load)
    for name, scheduler in ALGORITHMS.items():
        monkeypatch.setitem(ALGORITHMS, name, sized(scheduler))
    for mode in MODES:
        loaded.clear()
        queues.clear()
        assert cli.main(_argv(mode, trace, tmp_path / mode)) == 0
        assert loaded == [50]
        assert len(queues) == (50 if mode == "simulate" else 1)
        if mode != "simulate":
            assert queues[0] == []  # placement read every request off the handed-over list


# Traced peak bytes per request of a warm in-process run on 2000 seed-11
# timed requests (Python 3.11). Holding the trace as a list of requests for
# the whole run measured 956 B (schedule JSON, default config) and 1076 B
# (simulate, 100 nodes); taking each request off the list as it is read
# measured 750 and 895 B.
@pytest.mark.parametrize("mode, bound", [("schedule-json", 850), ("simulate", 980)])
def test_a_run_holds_no_request_past_its_placement(mode: str, bound: int, tmp_path: Path) -> None:
    count = 2000
    trace = _timed_trace(tmp_path / "trace.jsonl", count)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cluster": [{"count": 100}]}))
    argv = _argv(mode, trace, tmp_path / "out", config if mode == "simulate" else None)
    assert cli.main(argv) == 0  # warm every cache the run fills
    gc.collect()
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / count <= bound, f"{peak / count:.0f} B per request"


def test_read_trace_yields_each_request_before_it_reads_the_next_line() -> None:
    requests = read_trace(io.StringIO("\n".join([GOOD, "", BAD]) + "\n"))
    assert next(requests).id == "r2"
    with pytest.raises(TraceParseError, match="^line 3: invalid JSON"):
        next(requests)
    text = "\n".join([GOOD, _line("r3"), ""])
    assert list(read_trace(io.StringIO(text))) == load_trace(io.StringIO(text))


def _unprofilable(request_id: str) -> GptRequest:
    return GptRequest(id=request_id, task_kind=TaskKind.QA)


@pytest.mark.parametrize(
    "queue, error, message",
    [
        ([_unprofilable("r1"), request("r2", 1.0), request("r2", 1.0)], ValidationError, "duplicate request id 'r2'"),
        ([_unprofilable("r1"), request("resident-node-1", 1.0)], ValidationError,
         "request 'resident-node-1' is already allocated on a node"),
        ([request("r2", 1.0), _unprofilable("r1"), _unprofilable("r3")], UnprofilableRequestError,
         "request 'r1' has no explicit demand and no model size"),
    ],
    ids=["duplicate-before-profiling", "held-before-profiling", "first-profiling-refusal"],
)
def test_id_refusals_come_before_a_profiling_refusal(queue: list, error: type, message: str) -> None:
    for given_queue in (queue, iter(queue)):
        with pytest.raises(error) as caught:
            schedule_max_util(given_queue, [node("node-1", util=(0.1, 0.1, 0.1))], SchedulerConfig())
        assert str(caught.value) == message


def test_a_refusal_the_queue_raises_later_comes_before_a_profiling_refusal() -> None:
    def queue() -> Iterator[GptRequest]:
        yield _unprofilable("r1")
        raise TraceParseError(2, "invalid JSON: late")

    with pytest.raises(TraceParseError, match="^line 2: invalid JSON: late$"):
        schedule_max_util(queue(), [node("node-1")], SchedulerConfig())


@st.composite
def _workloads(draw: st.DrawFn, threshold: float) -> list:
    workload = []
    for j in range(draw(st.integers(min_value=0, max_value=8))):
        timing = {
            "arrival_s": draw(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(min_value=0.0, max_value=20.0)),
            "duration_s": draw(st.sampled_from([1.0, 1.5]) | st.floats(min_value=0.5, max_value=10.0)),
        }
        if draw(st.booleans()):
            workload.append(request(f"r{j:02d}", *draw(_demand(threshold)), **timing))
        else:
            workload.append(GptRequest(
                id=f"r{j:02d}", task_kind=TaskKind.CHAT, model_params_b=draw(st.sampled_from([7.0, 13.0, 70.0])),
                prompt_tokens=draw(st.integers(1, 4000)), output_tokens=draw(st.integers(1, 4000)), **timing,
            ))
    return workload


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_generator_and_a_list_of_the_same_requests_give_the_same_runs(data: st.DataObject) -> None:
    config = data.draw(_configs())
    workload = data.draw(_workloads(config.threshold.value))
    before = list(workload)
    for algorithm in sorted(ALGORITHMS):
        nodes = data.draw(_nodes(residents=True))
        from_list, from_stream = list(nodes), list(nodes)
        listed = run_batch(workload, from_list, algorithm, config)
        streamed = run_batch((r for r in workload), from_stream, algorithm, config)
        assert streamed == listed and from_stream == from_list
    initial = data.draw(_nodes(residents=False))
    algorithm = data.draw(st.sampled_from(sorted(ALGORITHMS)))
    adaptor = AdaptorPolicy(scale_down_grace_s=data.draw(st.sampled_from([0.0, 1.0, 5.0])))
    listed = run_timeline(workload, initial, algorithm, config, adaptor, 2.5)
    streamed = run_timeline((r for r in workload), initial, algorithm, config, adaptor, 2.5)
    assert streamed == listed
    assert len(workload) == len(before) and all(a is b for a, b in zip(workload, before))
