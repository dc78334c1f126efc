"""Refusal texts: each pinned word for word, and huge values echoed in bounded length.

Every refusal names what it refuses. A refused id or value is echoed
through model.echo, so a value of any size costs at most about 1,000
characters of message.
"""

from __future__ import annotations

import io
import json

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
    allocate_to_node,
    estimate_demand,
    load_cluster_config,
    load_trace,
    release_from_node,
    run_batch,
    run_timeline,
)
from gptsched.model import DuplicateAllocationError, NotAllocatedError
from gptsched.profiler import UnprofilableRequestError
from gptsched.scheduling import ClusterState
from gptsched.workload import TraceParseError

from helpers import node, template

HUGE = "x" * 1_000_000
PCT = UtilizationVector(0.1, 0.1, 0.1)


def _config(document: dict) -> None:
    load_cluster_config(io.StringIO(json.dumps(document)))


def _release_from_state(node_id: str, request_id: str) -> None:
    ClusterState([Node(node_id, template())]).release(node_id, request_id, PCT)


def _holding(node_id: str, request_id: str) -> Node:
    return Node(node_id, template(), utilization=PCT, allocated=frozenset({request_id}))


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
    ],
    ids=[
        "config-boolean", "size-choices-not-a-list", "size-choice-not-a-list", "size-choice-not-a-pair",
        "zero-model-size", "negative-model-size", "trace-line-not-an-object", "empty-node-id",
        "state-release-not-held", "node-release-not-held",
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
    "allocate-request": (lambda: allocate_to_node(_holding("node-1", HUGE), HUGE, PCT), DuplicateAllocationError),
    "allocate-node": (lambda: allocate_to_node(_holding(HUGE, "r1"), "r1", PCT), DuplicateAllocationError),
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
