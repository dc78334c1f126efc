"""Refusal texts: each pinned word for word, and huge values echoed in bounded length.

Every refusal names what it refuses. A refused id or value is echoed
through model.echo, so a value of any size costs at most about 1,000
characters of message.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import pytest

from gptsched import (
    AdaptorPolicy,
    ConfigError,
    GeneratorSpec,
    GptRequest,
    Node,
    SchedulerConfig,
    TaskKind,
    UtilizationVector,
    ValidationError,
    estimate_demand,
    load_cluster_config,
    load_trace,
    mean_compute_utilization,
    release_from_node,
    run_batch,
    run_timeline,
    schedule_max_util,
)
from gptsched.cli import main
from gptsched.model import NotAllocatedError
from gptsched.profiler import UnprofilableRequestError
from gptsched.scheduling import ClusterState
from gptsched.workload import TraceParseError

from helpers import node, request, template

HUGE = "x" * 1_000_000
PCT = UtilizationVector(0.1, 0.1, 0.1)


def _config(document: dict) -> None:
    load_cluster_config(io.StringIO(json.dumps(document)))


def _release_from_state(node_id: str, request_id: str) -> None:
    ClusterState([Node(node_id, template())]).release(node_id, request_id, PCT)


def _holding(node_id: str, request_id: str) -> Node:
    return Node(node_id, template(), utilization=PCT, allocated=frozenset({request_id}))


def _schedule_held(request_id: str) -> None:
    schedule_max_util([request(request_id, 1.0)], [_holding("node-1", request_id)], SchedulerConfig())


def _held_twice() -> list:
    return [_holding("node-1", "r1"), _holding("node-2", "r1")]


@pytest.mark.parametrize(
    "refused, error, message",
    [
        (lambda: _config({"power": {"off_when_empty": 1}}),
         ConfigError, "power.off_when_empty: must be true or false, got 1"),
        (lambda: _config({"generator": {"model_size_choices_b": 7}}),
         ConfigError, "generator.model_size_choices_b: must be a list of [size, prob] pairs"),
        (lambda: _config({"generator": {"model_size_choices_b": [[7, 1], 3]}}),
         ConfigError, "generator.model_size_choices_b[1]: must be a [size, prob] pair"),
        (lambda: _config({"generator": {"model_size_choices_b": [[7, 1], [7, 0, 1]]}}),
         ConfigError, "generator.model_size_choices_b[1]: must be a [size, prob] pair"),
        (lambda: GeneratorSpec(model_size_choices_b=((0.0, 1.0),)),
         ValidationError, "model size must be finite and > 0, got 0.0"),
        (lambda: GeneratorSpec(model_size_choices_b=((7.0, 0.5), (-1.0, 0.5))),
         ValidationError, "model size must be finite and > 0, got -1.0"),
        (lambda: load_trace(io.StringIO("[1]\n")),
         TraceParseError, "line 1: record must be a JSON object, got list"),
        (lambda: Node("", template()), ValidationError, "node id must be a non-empty string"),
        (lambda: _release_from_state("node-1", "r1"), NotAllocatedError, "request 'r1' not allocated on 'node-1'"),
        (lambda: release_from_node(node("node-1"), "r1", PCT),
         NotAllocatedError, "request 'r1' not allocated on 'node-1'"),
        (lambda: ClusterState(_held_twice()),
         ValidationError, "request 'r1' is allocated on both 'node-1' and 'node-2'"),
        (lambda: mean_compute_utilization(_held_twice()),
         ValidationError, "request 'r1' is allocated on both 'node-1' and 'node-2'"),
        (lambda: _schedule_held("r1"), ValidationError, "request 'r1' is already allocated on a node"),
        (lambda: AdaptorPolicy(scale_down_grace_s=-1.0), ValidationError, "scale_down_grace_s must be >= 0, got -1.0"),
        (lambda: AdaptorPolicy(scale_down_grace_s=float("inf")),
         ValidationError, "scale_down_grace_s must be finite, got inf"),
        (lambda: AdaptorPolicy(scale_down_grace_s=float("nan")),
         ValidationError, "scale_down_grace_s must be finite, got nan"),
        (lambda: AdaptorPolicy(scale_down_grace_s="300"),
         ValidationError, "scale_down_grace_s must be a number, got '300'"),
        (lambda: AdaptorPolicy(retain_min_nodes=-1), ValidationError, "retain_min_nodes must be an int >= 0, got -1"),
        (lambda: AdaptorPolicy(retain_min_nodes=True),
         ValidationError, "retain_min_nodes must be an int >= 0, got True"),
    ],
    ids=[
        "config-boolean", "size-choices-not-a-list", "size-choice-not-a-list", "size-choice-not-a-pair",
        "zero-model-size", "negative-model-size", "trace-line-not-an-object", "empty-node-id",
        "state-release-not-held", "node-release-not-held",
        "state-request-on-two-nodes", "metrics-request-on-two-nodes", "schedule-request-already-placed",
        "negative-grace", "infinite-grace", "nan-grace", "str-grace", "negative-node-floor", "bool-node-floor",
    ],
)
def test_refusal_text(refused, error, message) -> None:
    with pytest.raises(error) as caught:
        refused()
    assert str(caught.value) == message


_HUGE_REFUSALS = {
    "estimate-demand-request": (
        lambda: estimate_demand(GptRequest(id=HUGE, task_kind=TaskKind.QA, model_params_b=0.0)),
        UnprofilableRequestError,
    ),
    "schedule-request-already-placed": (lambda: _schedule_held(HUGE), ValidationError),
    "release-request": (lambda: release_from_node(node("node-1"), HUGE, PCT), NotAllocatedError),
    "release-node": (lambda: release_from_node(node(HUGE), "r1", PCT), NotAllocatedError),
    "state-release-request": (lambda: _release_from_state("node-1", HUGE), NotAllocatedError),
    "state-release-node": (lambda: _release_from_state(HUGE, "r1"), NotAllocatedError),
    "batch-algorithm": (lambda: run_batch([], [], HUGE, SchedulerConfig()), ConfigError),
    "timeline-algorithm": (
        lambda: run_timeline([], [], HUGE, SchedulerConfig(), AdaptorPolicy(), 60.0),
        ConfigError,
    ),
    "timeline-initial-node": (
        lambda: run_timeline([], [_holding(HUGE, "r1")], "max-util", SchedulerConfig(), AdaptorPolicy(), 60.0),
        ValidationError,
    ),
    "request-task-kind": (lambda: GptRequest(id="r1", task_kind=HUGE, model_params_b=7.0), ValidationError),
}


@pytest.mark.parametrize("case", sorted(_HUGE_REFUSALS))
def test_a_huge_refused_value_is_echoed_in_bounded_length(case) -> None:
    refused, error = _HUGE_REFUSALS[case]
    with pytest.raises(error) as caught:
        refused()
    message = str(caught.value)
    assert "... (999002 more characters)" in message
    assert len(message) < 1_150  # a 1,028-character echo and the message's own text


def _profiled(**tokens: int) -> GptRequest:
    return GptRequest(id="r1", task_kind=TaskKind.QA, model_params_b=7.0, **tokens)


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: _profiled(prompt_tokens=10**400), f"prompt_tokens must be finite, got {10**400}"),
        (lambda: _profiled(output_tokens=2**1024), f"output_tokens must be finite, got {2**1024}"),
        (lambda: GptRequest(id="r1", task_kind=TaskKind.QA, model_params_b=10**5000),
         "model_params_b must be finite, got <int too long to show>"),
        (lambda: GptRequest(id="r1", task_kind=TaskKind.QA, model_params_b=7.0, arrival_s=10**400),
         f"arrival_s must be finite, got {10**400}"),
        (lambda: _profiled(prompt_tokens=-(10**5000)),
         "prompt_tokens must be a non-negative int, got <int too long to show>"),
        (lambda: estimate_demand(_profiled(prompt_tokens=2**1023, output_tokens=2**1023)),
         "compute must be finite, got inf"),
        (lambda: AdaptorPolicy(scale_down_grace_s=10**5000),
         "scale_down_grace_s must be finite, got <int too long to show>"),
        (lambda: GptRequest(id="r1", task_kind=TaskKind.QA, model_params_b=Fraction(10**5000)),
         "model_params_b must be finite, got <Fraction too long to show>"),
    ],
    ids=["prompt-tokens", "output-tokens", "model-size", "arrival", "negative-huge-tokens", "token-sum",
         "huge-int-grace", "huge-fraction-model-size"],
)
def test_a_number_too_large_for_a_float_is_refused_by_name(refused, message) -> None:
    with pytest.raises(ValidationError) as caught:
        refused()
    assert str(caught.value) == message


def test_a_trace_whose_token_sum_no_float_holds_is_refused(tmp_path) -> None:
    # Each count fits a float; the profiler's sum of the two does not.
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"id": "r1", "task_kind": "qa", "model_params_b": 7.0,
                                 "prompt_tokens": 2**1023, "output_tokens": 2**1023}) + "\n")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["schedule", "--workload", str(trace), "--algorithm", "max-util", "--out", str(tmp_path / "o")])
    assert (code, stderr.getvalue()) == (2, "gptsched: compute must be finite, got inf\n")
