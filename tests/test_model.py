"""Core type invariants and node bookkeeping ops."""

from __future__ import annotations

import pytest

from gptsched import (
    GptRequest,
    InvalidCapacityError,
    Node,
    NotAllocatedError,
    ResourceVector,
    TaskKind,
    Threshold,
    UtilizationVector,
    ValidationError,
    release_from_node,
)

from helpers import template


def test_resource_vector_rejects_negative_and_non_finite() -> None:
    with pytest.raises(ValidationError):
        ResourceVector(compute=-1.0, memory_gib=0.0, storage_gib=0.0)
    with pytest.raises(ValidationError):
        ResourceVector(compute=float("nan"), memory_gib=0.0, storage_gib=0.0)
    with pytest.raises(ValidationError):
        UtilizationVector(compute=0.5, memory=float("inf"), storage=0.0)


def test_utilization_vector_allows_components_above_one() -> None:
    # Demand percentages may exceed 1; feasibility is the caller's call.
    pct = UtilizationVector(compute=1.5, memory=0.2, storage=0.0)
    assert pct.compute == 1.5


def test_threshold_bounds() -> None:
    assert Threshold(1.0).value == 1.0
    assert Threshold(0.8).value == 0.8
    for bad in (0.0, -0.1, 1.3, float("nan")):
        with pytest.raises(ValidationError):
            Threshold(bad)


def test_node_template_validation() -> None:
    with pytest.raises(InvalidCapacityError):
        template(compute=0.0)
    with pytest.raises(ValidationError):
        template(p_idle=300.0, p_max=200.0)
    with pytest.raises(ValidationError):
        template(p_idle=-1.0)


def test_request_validation() -> None:
    with pytest.raises(ValidationError):
        GptRequest(id="", task_kind=TaskKind.CHAT, model_params_b=7.0)
    with pytest.raises(ValidationError):
        GptRequest(id="r1", task_kind="chat", model_params_b=7.0)  # type: ignore[arg-type]
    with pytest.raises(ValidationError):
        GptRequest(id="r1", task_kind=TaskKind.CHAT, model_params_b=7.0, prompt_tokens=-1)
    with pytest.raises(ValidationError):
        GptRequest(id="r1", task_kind=TaskKind.CHAT, model_params_b=7.0, duration_s=0.0)
    with pytest.raises(ValidationError):
        GptRequest(id="r1", task_kind=TaskKind.CHAT, model_params_b=7.0, arrival_s=-5.0)


def test_allocate_and_release_bookkeeping() -> None:
    pct = UtilizationVector(0.3, 0.2, 0.1)
    loaded = Node("n1", template(), utilization=pct, allocated=frozenset({"r1"}))

    released = release_from_node(loaded, "r1", pct)
    assert released.is_empty
    assert released.utilization.as_tuple() == (0.0, 0.0, 0.0)

    with pytest.raises(NotAllocatedError):
        release_from_node(released, "r1", pct)


def test_release_of_sole_request_snaps_to_exact_zero() -> None:
    # 0.1 + 0.2 - 0.30000000000000004 style residue must not survive.
    a = UtilizationVector(0.1, 0.1, 0.1)
    b = UtilizationVector(0.2, 0.2, 0.2)
    n = Node("n1", template(), utilization=UtilizationVector(0.1 + 0.2, 0.1 + 0.2, 0.1 + 0.2),
             allocated=frozenset({"r1", "r2"}))
    n = release_from_node(n, "r1", a)
    n = release_from_node(n, "r2", b)
    assert n.utilization.as_tuple() == (0.0, 0.0, 0.0)
    assert n.is_empty
