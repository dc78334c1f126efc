"""Objective metrics and report assembly."""

from __future__ import annotations

import math
import random
import statistics
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gptsched import (
    AdaptorPolicy,
    AllocationOutcome,
    IntegrityError,
    PowerMode,
    PowerPolicy,
    ResourceVector,
    SchedulerConfig,
    UndefinedMetricError,
    ValidationError,
    build_report,
    mean_compute_utilization,
    per_resource_mean_utilization,
    run_batch,
    run_timeline,
    schedule_max_util,
    total_power,
    utilization_stddev,
)
from gptsched.scheduling import ClusterState

from helpers import node, request, template


def _cluster(utils: list) -> list:
    return [node(f"n{i + 1}", template(), util=(u, 0.0, 0.0)) for i, u in enumerate(utils)]


def _empty_outcome() -> AllocationOutcome:
    return AllocationOutcome(allocation={}, unallocated=(), created_node_ids=(), trace=())


def test_mean_is_arithmetic_mean_over_all_nodes() -> None:
    assert mean_compute_utilization(_cluster([0.2, 0.4, 0.6])) == pytest.approx(0.4, abs=1e-12)
    assert mean_compute_utilization(_cluster([0.7])) == pytest.approx(0.7)
    assert mean_compute_utilization(_cluster([0.0, 0.0])) == 0.0


def test_stddev_is_population_form() -> None:
    assert utilization_stddev(_cluster([0.5, 0.5, 0.5])) == 0.0
    assert utilization_stddev(_cluster([0.0, 1.0])) == 0.5
    assert utilization_stddev(_cluster([0.2, 0.4, 0.6])) == pytest.approx(0.16330, abs=1e-5)
    assert utilization_stddev(_cluster([0.2, 0.4, 0.6])) == pytest.approx(
        math.sqrt(0.08 / 3.0), abs=1e-12
    )


def test_empty_node_list_is_undefined() -> None:
    with pytest.raises(UndefinedMetricError):
        mean_compute_utilization([])
    with pytest.raises(UndefinedMetricError):
        utilization_stddev([])
    with pytest.raises(UndefinedMetricError):
        per_resource_mean_utilization([])


def test_metrics_invariant_under_permutation() -> None:
    rng = random.Random(7)
    utils = [rng.random() for _ in range(20)]
    nodes = _cluster(utils)
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    assert mean_compute_utilization(nodes) == pytest.approx(
        mean_compute_utilization(shuffled), abs=1e-12
    )
    assert utilization_stddev(nodes) == pytest.approx(utilization_stddev(shuffled), abs=1e-12)


def test_stddev_zero_iff_equal() -> None:
    assert utilization_stddev(_cluster([0.3, 0.3, 0.3, 0.3])) <= 1e-9
    assert utilization_stddev(_cluster([0.3, 0.30001])) > 0.0


def test_empty_nodes_count_in_k() -> None:
    # One busy node plus three empty ones: consolidation is only rewarded
    # because the empty nodes still divide the sum.
    assert mean_compute_utilization(_cluster([0.8, 0.0, 0.0, 0.0])) == pytest.approx(0.2)


def test_per_resource_means() -> None:
    nodes = [
        node("n1", template(), util=(0.2, 0.4, 0.6)),
        node("n2", template(), util=(0.4, 0.0, 0.2)),
    ]
    per = per_resource_mean_utilization(nodes)
    assert per.compute == pytest.approx(0.3)
    assert per.memory == pytest.approx(0.2)
    assert per.storage == pytest.approx(0.4)


def test_build_report_counts_and_metrics() -> None:
    nodes = _cluster([0.7, 0.2])
    outcome = AllocationOutcome(
        allocation={"r1": "n1"}, unallocated=("r2",), created_node_ids=(), trace=()
    )
    report = build_report(outcome, nodes)
    assert report.node_count == 2
    assert report.request_count == 2
    assert report.unallocated_count == 1
    assert report.created_node_count == 0
    assert report.mean_compute_utilization == pytest.approx(0.45)
    assert report.deadline_misses is None
    assert report.energy_wh is None


def test_build_report_empty_run() -> None:
    report = build_report(_empty_outcome(), _cluster([0.0, 0.0]))
    assert report.request_count == 0
    assert report.unallocated_count == 0
    assert report.mean_compute_utilization == 0.0


def test_build_report_zero_nodes_reports_zero_metrics() -> None:
    report = build_report(_empty_outcome(), [])
    assert report.node_count == 0
    assert report.mean_compute_utilization == 0.0
    assert report.total_power_w == 0.0


def test_build_report_integrity_checks() -> None:
    nodes = _cluster([0.5])
    both = AllocationOutcome(
        allocation={"r1": "n1"}, unallocated=("r1",), created_node_ids=(), trace=()
    )
    with pytest.raises(IntegrityError):
        build_report(both, nodes)
    ghost = AllocationOutcome(
        allocation={"r1": "missing-node"}, unallocated=(), created_node_ids=(), trace=()
    )
    with pytest.raises(IntegrityError):
        build_report(ghost, nodes)
    # Timeline runs may reference scaled-down nodes.
    report = build_report(ghost, nodes, require_allocation_targets=False)
    assert report.request_count == 1


def test_cli_import_loads_no_statistics_fractions_or_decimal() -> None:
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys, gptsched.cli; "
        "print(sorted({'statistics', 'fractions', 'decimal', 'logging'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env={"PYTHONPATH": str(src)}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _assert_correctly_rounded_root(root: float, square: Fraction) -> None:
    # root is the float nearest the exact square root of square, ties to
    # even: square lies between the squares of the midpoints to root's
    # neighbours, and on one of them only when root's last bit is 0.
    low = (Fraction(root) + Fraction(math.nextafter(root, -math.inf))) / 2
    high = (Fraction(root) + Fraction(math.nextafter(root, math.inf))) / 2
    assert (low < 0 or low * low <= square) and square <= high * high
    if square == high * high or (low >= 0 and square == low * low):
        assert struct.unpack("<q", struct.pack("<d", root))[0] % 2 == 0


# Zeros, utilizations in [0, 1], subnormals, and values above 1 up to the
# size where the variance reaches 2**109 and the root is taken unscaled.
_UTILIZATIONS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0**-1022),
    st.floats(1.0, 1e300),
)
_UTILIZATION_LISTS = st.one_of(
    st.lists(_UTILIZATIONS, min_size=1, max_size=400),
    st.tuples(_UTILIZATIONS, st.integers(1, 400)).map(lambda pair: [pair[0]] * pair[1]),
)


@settings(max_examples=300, deadline=None)
@given(_UTILIZATION_LISTS)
@example([0.09, 0.993])  # 3.10's statistics.pstdev is one ulp low here
@example([5e-324, 0.0])
@example([0.0, 2.0**60])
def test_mean_and_stddev_are_exact(utils: list) -> None:
    nodes = _cluster(utils)
    mean, stddev = mean_compute_utilization(nodes), utilization_stddev(nodes)
    assert type(mean) is float and type(stddev) is float
    assert mean == statistics.fmean(utils)
    assert per_resource_mean_utilization(nodes).compute == mean
    exact = [Fraction(u) for u in utils]
    centre = sum(exact) / len(exact)
    _assert_correctly_rounded_root(stddev, sum((u - centre) ** 2 for u in exact) / len(exact))
    if sys.version_info >= (3, 11):
        assert stddev == statistics.pstdev(utils)


def test_stddev_is_a_float_when_the_variance_passes_two_to_the_109() -> None:
    stddev = utilization_stddev(_cluster([0.0, 2.0**60]))
    assert type(stddev) is float and stddev == 2.0**59


_TEMPLATES = (
    template(),
    template(compute=50.0, memory=200.0, storage=75.0, p_idle=0.0, p_max=150.0),
    template(compute=1000.0, memory=512.0, storage=2000.0, p_idle=100.0, p_max=400.0),
)
_RESIDENTS = (None, (0.1, 0.2, 0.0), (0.5, 0.5, 0.5), (0.79, 0.0, 0.3))
_AMOUNTS = st.sampled_from([0.0, 1.0, 7.5, 25.0, 1 / 3]) | st.floats(0.0, 60.0)


@st.composite
def _states(draw: st.DrawFn) -> ClusterState:
    """A state under a random policy, moved by random allocations,
    releases, removals and added nodes."""

    policy = PowerPolicy(mode=draw(st.sampled_from(list(PowerMode))), off_when_empty=draw(st.booleans()))
    nodes = [
        node(f"n{i}", draw(st.sampled_from(_TEMPLATES)), draw(st.sampled_from(_RESIDENTS)))
        for i in range(draw(st.integers(0, 5)))
    ]
    state = ClusterState(nodes, policy)
    live = {}  # request id -> (node id, pct)
    for step in range(draw(st.integers(0, 25))):
        move = draw(st.sampled_from(["allocate", "allocate", "release", "remove", "add"]))
        if move == "add" or not state.ids:
            state.add_node(f"a{step}", draw(st.sampled_from(_TEMPLATES)))
        elif move == "allocate":
            i = draw(st.integers(0, len(state) - 1))
            demand = ResourceVector(draw(_AMOUNTS), draw(_AMOUNTS), draw(_AMOUNTS))
            live[f"r{step}"] = (state.ids[i], state.allocate(i, f"r{step}", demand))
        elif move == "release" and live:
            request_id = draw(st.sampled_from(sorted(live)))
            node_id, pct = live.pop(request_id)
            state.release(node_id, request_id, pct)
        elif move == "remove":
            node_id = draw(st.sampled_from(state.ids))
            state.remove(node_id)
            live = {r: held for r, held in live.items() if held[0] != node_id}
    return state


@settings(max_examples=200, deadline=None)
@given(state=_states(), unallocated=st.integers(0, 3))
def test_a_state_reports_as_its_node_list_does(state, unallocated) -> None:
    nodes = list(state)
    allocation = {request_id: view.id for view in nodes for request_id in sorted(view.allocated)}
    outcome = AllocationOutcome(
        allocation=allocation,
        unallocated=tuple(f"u{k}" for k in range(unallocated)),
        created_node_ids=tuple(state.ids[:1]),
        trace=(),
    )
    report = build_report(outcome, state, state.policy)
    assert report == build_report(outcome, nodes, state.policy)
    # The node list's draws, summed in node order as total_power sums them.
    assert report.total_power_w == total_power(nodes, state.policy)
    assert report.node_count == len(nodes)
    if not nodes:
        return
    for metric in (mean_compute_utilization, utilization_stddev, per_resource_mean_utilization):
        assert metric(state) == metric(nodes)
    assert mean_compute_utilization(state) == math.fsum(n.utilization.compute for n in nodes) / len(nodes)


@settings(max_examples=50, deadline=None)
@given(state=_states())
def test_a_state_priced_under_another_policy_is_refused(state) -> None:
    other = PowerPolicy(mode=state.policy.mode, off_when_empty=not state.policy.off_when_empty)
    outcome = AllocationOutcome(allocation={}, unallocated=(), created_node_ids=(), trace=())
    with pytest.raises(ValidationError, match="priced with") as reported:
        build_report(outcome, state, other)
    with pytest.raises(ValidationError) as scheduled:
        schedule_max_util([], state, SchedulerConfig(power_policy=other))
    assert str(reported.value) == str(scheduled.value)
    # An equal policy that is another object is the state's own.
    equal = PowerPolicy(mode=state.policy.mode, off_when_empty=state.policy.off_when_empty)
    assert build_report(outcome, state, equal).node_count == len(state)


def test_a_node_list_with_a_repeated_id_is_refused() -> None:
    nodes = _cluster([0.5, 0.25]) + _cluster([0.0])
    for metric in (mean_compute_utilization, utilization_stddev, per_resource_mean_utilization):
        with pytest.raises(ValidationError, match="duplicate node id"):
            metric(nodes)
    with pytest.raises(ValidationError, match="duplicate node id"):
        build_report(_empty_outcome(), nodes)


def test_total_power_is_a_float_with_no_nodes() -> None:
    # sum() of no draws is the int 0 unless it starts from 0.0.
    _, batch = run_batch([], [], "max-util", SchedulerConfig())
    workload = [request("r1", 10.0, arrival_s=0.0, duration_s=5.0)]
    adaptor = AdaptorPolicy(scale_down_grace_s=0.0)
    timeline = run_timeline(workload, [node("n1")], "max-util", SchedulerConfig(), adaptor, 60.0)
    assert batch.node_count == 0 and timeline.report.node_count == 0
    for report in (batch, timeline.report):
        assert type(report.total_power_w) is float and report.total_power_w == 0.0
