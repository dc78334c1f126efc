"""The three schedulers: hand traces, pins, and oracle spot checks."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptsched import (
    NodeIdSequence,
    ResourceVector,
    PowerMode,
    PowerPolicy,
    SchedulerConfig,
    Threshold,
    UtilizationVector,
    ValidationError,
    create_new_node,
    default_config,
    fits,
    generate_synthetic,
    schedule_load_balance,
    schedule_max_util,
    schedule_power_efficient,
    utilization_stddev,
)
from gptsched.scheduling import REASON_INFEASIBLE_ON_ANY_NODE, REASON_NO_FEASIBLE_NODE, ClusterState

from helpers import node, profiled_request, random_instance, request, template
from naive_reference import ref_load_balance, ref_max_util, ref_power_efficient


def _config(threshold: float = 0.8, autoscale: bool = False, **kwargs: object) -> SchedulerConfig:
    return SchedulerConfig(
        threshold=Threshold(threshold),
        autoscale_template=template() if autoscale else None,
        **kwargs,
    )


def test_fits_boundary_and_single_axis_violation() -> None:
    n = node("n1", template(), util=(0.5, 0.5, 0.5))
    assert fits(n, UtilizationVector(0.3, 0.3, 0.3), Threshold(0.8))
    assert not fits(n, UtilizationVector(0.3, 0.3, 0.31), Threshold(0.8))
    assert fits(n, UtilizationVector(0.0, 0.0, 0.0), Threshold(0.8))


def test_max_util_prefers_fullest_feasible_node() -> None:
    # A at 0.5, B at 0.2 on all axes; request is 20% of capacity.
    nodes = [node("a", template(), util=(0.5, 0.5, 0.5)), node("b", template(), util=(0.2, 0.2, 0.2))]
    outcome = schedule_max_util([request("r1", 20.0, 20.0, 20.0)], nodes, _config())
    assert outcome.allocation == {"r1": "a"}
    assert nodes[0].utilization.compute == pytest.approx(0.7)
    assert nodes[1].utilization.compute == pytest.approx(0.2)
    record = outcome.trace[0]
    assert record.scanned == ("a",)
    assert record.chosen_node_id == "a"
    assert record.pct is not None and record.pct.compute == pytest.approx(0.2)


def test_load_balance_prefers_emptiest_node() -> None:
    nodes = [node("a", template(), util=(0.5, 0.5, 0.5)), node("b", template(), util=(0.2, 0.2, 0.2))]
    outcome = schedule_load_balance([request("r1", 20.0, 20.0, 20.0)], nodes, _config())
    assert outcome.allocation == {"r1": "b"}
    assert outcome.trace[0].scanned == ("b",)
    assert nodes[1].utilization.compute == pytest.approx(0.4)


def test_sort_once_vs_resort_on_equal_empty_nodes() -> None:
    # Two equal requests, two equal empty nodes: sort-once stacks both on
    # the first node; resorting after each allocation spreads them.
    queue = [request("r1", 20.0), request("r2", 20.0)]
    nodes = [node("a"), node("b")]
    outcome = schedule_load_balance(queue, nodes, _config())
    assert outcome.allocation == {"r1": "a", "r2": "a"}

    nodes = [node("a"), node("b")]
    outcome = schedule_load_balance(queue, nodes, _config(resort_after_each_allocation=True))
    assert outcome.allocation == {"r1": "a", "r2": "b"}


def test_requests_processed_by_descending_compute_demand_then_id() -> None:
    queue = [
        request("r3", 10.0),
        request("r1", 30.0),
        request("r4", 30.0),
        request("r2", 50.0),
    ]
    outcome = schedule_max_util(queue, [node("a")], _config())
    assert [r.request_id for r in outcome.trace] == ["r2", "r1", "r4", "r3"]


def test_node_order_tie_breaks_by_ascending_id() -> None:
    nodes = [node("beta"), node("alpha")]
    outcome = schedule_max_util([request("r1", 10.0)], nodes, _config())
    assert outcome.allocation == {"r1": "alpha"}


def test_autoscale_creates_node_when_nothing_fits() -> None:
    # Single node at 0.5, request at 50%: 1.0 > 0.8, so a node is created.
    nodes = [node("a", template(), util=(0.5, 0.5, 0.5))]
    outcome = schedule_max_util([request("r1", 50.0, 50.0, 50.0)], nodes, _config(autoscale=True))
    assert outcome.created_node_ids == ("auto-1",)
    assert outcome.allocation == {"r1": "auto-1"}
    assert outcome.trace[0].created_node
    assert len(nodes) == 2
    assert nodes[1].id == "auto-1"
    assert nodes[1].utilization.compute == pytest.approx(0.5)


def test_autoscale_from_empty_node_list() -> None:
    nodes: list = []
    outcome = schedule_load_balance([request("r1", 10.0)], nodes, _config(autoscale=True))
    assert outcome.allocation == {"r1": "auto-1"}
    assert [n.id for n in nodes] == ["auto-1"]


def test_oversized_request_rejected_not_looped() -> None:
    # 120% of a fresh template can never fit: reject, never create forever.
    outcome = schedule_max_util([request("r1", 120.0)], [node("a")], _config(autoscale=True))
    assert outcome.unallocated == ("r1",)
    assert outcome.created_node_ids == ()
    assert outcome.trace[0].reason == REASON_INFEASIBLE_ON_ANY_NODE


def test_rejection_reason_without_autoscale() -> None:
    outcome = schedule_max_util([request("r1", 90.0)], [node("a")], _config())
    assert outcome.unallocated == ("r1",)
    assert outcome.trace[0].reason == REASON_NO_FEASIBLE_NODE


def test_empty_queue_leaves_nodes_untouched() -> None:
    nodes = [node("a", template(), util=(0.25, 0.0, 0.0))]
    before = list(nodes)
    outcome = schedule_max_util([], nodes, _config())
    assert outcome.allocation == {}
    assert outcome.trace == ()
    assert nodes == before


def test_zero_demand_request_takes_first_scanned_node() -> None:
    nodes = [node("a", template(), util=(0.6, 0.1, 0.1)), node("b")]
    outcome = schedule_max_util([request("r1", 0.0)], nodes, _config())
    assert outcome.allocation == {"r1": "a"}


def test_threshold_one_allows_full_capacity() -> None:
    outcome = schedule_max_util([request("r1", 100.0)], [node("a")], _config(threshold=1.0))
    assert outcome.allocation == {"r1": "a"}


def test_exact_threshold_boundary_is_feasible() -> None:
    outcome = schedule_max_util([request("r1", 80.0)], [node("a")], _config(threshold=0.8))
    assert outcome.allocation == {"r1": "a"}


def test_duplicate_ids_rejected() -> None:
    with pytest.raises(ValidationError):
        schedule_max_util([request("r1", 1.0), request("r1", 2.0)], [node("a")], _config())
    with pytest.raises(ValidationError):
        schedule_max_util([request("r1", 1.0)], [node("a"), node("a")], _config())
    busy = node("a", template(), util=(0.1, 0.1, 0.1))  # resident id resident-a
    with pytest.raises(ValidationError):
        schedule_max_util(
            [request("resident-a", 1.0)], [busy], _config()
        )


def test_power_prefers_smallest_delta() -> None:
    # Warm node costs the slope (20 W); waking the off node costs 120 W.
    tpl = template(p_idle=100.0, p_max=200.0)
    nodes = [node("n1", tpl, util=(0.5, 0.0, 0.0)), node("n2", tpl)]
    outcome = schedule_power_efficient([request("r1", 20.0)], nodes, _config())
    assert outcome.allocation == {"r1": "n1"}
    record = outcome.trace[0]
    assert record.scanned == ("n1", "n2")
    estimates = dict(record.power_estimates)
    assert estimates["n1"] == pytest.approx(20.0)
    assert estimates["n2"] == pytest.approx(120.0)


def test_power_tie_keeps_first_scanned_node() -> None:
    nodes = [node("n2"), node("n1")]
    outcome = schedule_power_efficient([request("r1", 10.0)], nodes, _config())
    assert outcome.allocation == {"r1": "n1"}


def test_power_uses_capacity_not_threshold() -> None:
    # 0.9 + 0.09 exceeds the 0.8 threshold but fits capacity.
    nodes = [node("n1", template(), util=(0.9, 0.1, 0.1))]
    outcome = schedule_power_efficient([request("r1", 9.0)], nodes, _config(threshold=0.8))
    assert outcome.allocation == {"r1": "n1"}
    assert nodes[0].utilization.compute == pytest.approx(0.99)


def test_power_rejects_without_autoscale_by_default() -> None:
    nodes = [node("n1", template(memory=10.0), util=(0.0, 0.9, 0.0))]
    outcome = schedule_power_efficient([request("r1", 1.0, memory=5.0)], nodes, _config())
    assert outcome.unallocated == ("r1",)
    assert outcome.trace[0].reason == REASON_NO_FEASIBLE_NODE
    assert outcome.trace[0].power_estimates == ()


def test_power_autoscale_is_opt_in_and_checks_capacity() -> None:
    nodes = [node("n1", template(), util=(1.0, 0.1, 0.1))]
    outcome = schedule_power_efficient([request("r1", 90.0)], nodes, _config(autoscale=True))
    assert outcome.allocation == {"r1": "auto-1"}
    # 90% exceeds a 0.8 threshold but autoscale here is capacity-based.
    assert outcome.created_node_ids == ("auto-1",)


def test_power_absolute_after_mode_changes_choice() -> None:
    # Incremental prefers the warm node (20 < 120); absolute-after prefers
    # the off node (120 < 170).
    tpl = template(p_idle=100.0, p_max=200.0)
    queue = [request("r1", 20.0)]
    nodes = [node("n1", tpl, util=(0.5, 0.0, 0.0)), node("n2", tpl)]
    outcome = schedule_power_efficient(queue, nodes, _config())
    assert outcome.allocation == {"r1": "n1"}

    nodes = [node("n1", tpl, util=(0.5, 0.0, 0.0)), node("n2", tpl)]
    absolute = _config(power_policy=PowerPolicy(mode=PowerMode.ABSOLUTE_AFTER))
    outcome = schedule_power_efficient(queue, nodes, absolute)
    assert outcome.allocation == {"r1": "n2"}


def test_created_node_ids_sequence_skips_used_ids() -> None:
    seq = NodeIdSequence(["auto-1"])
    created = create_new_node(template(), seq)
    assert created.id == "auto-2"
    assert created.utilization.as_tuple() == (0.0, 0.0, 0.0)
    assert create_new_node(template(), seq).id == "auto-3"


def test_create_new_node_sequence_from_scratch() -> None:
    seq = NodeIdSequence()
    assert create_new_node(template(), seq).id == "auto-1"
    assert create_new_node(template(), seq).id == "auto-2"


def test_scheduler_skips_existing_auto_ids() -> None:
    nodes = [node("auto-1", template(), util=(0.9, 0.9, 0.9))]
    outcome = schedule_max_util([request("r1", 50.0)], nodes, _config(autoscale=True))
    assert outcome.created_node_ids == ("auto-2",)


def test_partition_property_on_random_instances() -> None:
    rng = random.Random(2024)
    for _ in range(60):
        requests, nodes, threshold, autoscale, policy = random_instance(rng)
        config = SchedulerConfig(
            threshold=Threshold(threshold), autoscale_template=autoscale, power_policy=policy
        )
        for scheduler in (schedule_max_util, schedule_load_balance, schedule_power_efficient):
            outcome = scheduler(requests, list(nodes), config)
            ids = set(outcome.allocation) | set(outcome.unallocated)
            assert ids == {r.id for r in requests}
            assert not set(outcome.allocation) & set(outcome.unallocated)


def test_threshold_safety_on_random_instances() -> None:
    # Pre-loaded nodes may start above the threshold; the scheduler never
    # pushes any axis past max(initial, threshold).
    rng = random.Random(99)
    for _ in range(60):
        requests, nodes, threshold, autoscale, policy = random_instance(rng)
        config = SchedulerConfig(
            threshold=Threshold(threshold), autoscale_template=autoscale, power_policy=policy
        )
        for scheduler in (schedule_max_util, schedule_load_balance):
            mutated = list(nodes)
            initial = {n.id: n.utilization.as_tuple() for n in mutated}
            scheduler(requests, mutated, config)
            for n in mutated:
                start = initial.get(n.id, (0.0, 0.0, 0.0))
                for axis, before in zip(n.utilization.as_tuple(), start):
                    assert axis <= max(before, threshold) + 1e-9


def test_determinism_identical_runs_identical_outcomes() -> None:
    rng = random.Random(5)
    requests, nodes, threshold, autoscale, policy = random_instance(rng)
    config = SchedulerConfig(
        threshold=Threshold(threshold), autoscale_template=autoscale, power_policy=policy
    )
    for scheduler in (schedule_max_util, schedule_load_balance, schedule_power_efficient):
        first = scheduler(requests, list(nodes), config)
        second = scheduler(requests, list(nodes), config)
        assert first == second


def test_profiled_requests_flow_through_scheduler() -> None:
    tpl = template(compute=1000.0, memory=512.0, storage=2000.0)
    queue = [profiled_request("r1", params_b=7.0, prompt=500, output=500)]
    nodes = [node("a", tpl)]
    outcome = schedule_max_util(queue, nodes, _config())
    assert outcome.allocation == {"r1": "a"}
    # Demand 14/1000 compute, 14.14/512 memory, 14/2000 storage.
    assert nodes[0].utilization.compute == pytest.approx(0.014)
    assert nodes[0].utilization.memory == pytest.approx(14.14 / 512.0)


def test_oracle_spot_check_small_instances() -> None:
    # The full 500-instance battle lives in the acceptance suite.
    rng = random.Random(31337)
    for _ in range(80):
        requests, nodes, threshold, autoscale, policy = random_instance(rng)
        config = SchedulerConfig(
            threshold=Threshold(threshold), autoscale_template=autoscale, power_policy=policy
        )

        got = schedule_max_util(requests, list(nodes), config)
        want = ref_max_util(requests, list(nodes), threshold, autoscale)
        assert got.allocation == want["allocation"]
        assert list(got.unallocated) == want["unallocated"]
        assert list(got.created_node_ids) == want["created"]

        got = schedule_load_balance(requests, list(nodes), config)
        want = ref_load_balance(requests, list(nodes), threshold, autoscale)
        assert got.allocation == want["allocation"]
        assert list(got.unallocated) == want["unallocated"]

        got = schedule_power_efficient(requests, list(nodes), config)
        want = ref_power_efficient(requests, list(nodes), policy, autoscale)
        assert got.allocation == want["allocation"]
        assert list(got.unallocated) == want["unallocated"]
        assert list(got.created_node_ids) == want["created"]


def test_resort_schedulers_match_naive_reference() -> None:
    rng = random.Random(20261018)
    for _ in range(400):
        requests, nodes, threshold, autoscale, policy = random_instance(rng)
        config = SchedulerConfig(
            threshold=Threshold(threshold),
            autoscale_template=autoscale,
            power_policy=policy,
            resort_after_each_allocation=True,
        )
        for scheduler, reference in (
            (schedule_max_util, ref_max_util),
            (schedule_load_balance, ref_load_balance),
        ):
            got = scheduler(requests, list(nodes), config)
            want = reference(requests, list(nodes), threshold, autoscale, resort=True)
            assert got.allocation == want["allocation"]
            assert set(got.unallocated) == set(want["unallocated"])
            assert list(got.created_node_ids) == want["created"]


def test_threshold_schedulers_differ_only_when_resorting() -> None:
    # From an empty homogeneous cluster every node sorts by id, so with one
    # up-front sort max-util and load-balance scan, and allocate, alike.
    config = default_config()
    sort_once = config.scheduler
    resort = replace(sort_once, resort_after_each_allocation=True)

    def run(scheduler, scheduler_config):
        nodes = config.fresh_nodes()
        allocation = scheduler(workload, nodes, scheduler_config).allocation
        return allocation, utilization_stddev(nodes)

    for seed in (1, 2, 3):
        workload = generate_synthetic(replace(config.generator, seed=seed))
        assert run(schedule_max_util, sort_once)[0] == run(schedule_load_balance, sort_once)[0]
        consolidated, consolidated_sd = run(schedule_max_util, resort)
        spread, spread_sd = run(schedule_load_balance, resort)
        assert consolidated != spread
        assert consolidated_sd > spread_sd


def _assert_orders_sorted(state: ClusterState) -> None:
    # Every order built so far equals a fresh sort of the arrays.
    ids, uc = state.ids, state.uc
    if state.by_id is not None:
        assert state.by_id == sorted((ids[i], i) for i in range(len(ids)))
    for descending, order in state.by_util.items():
        keys = [-u for u in uc] if descending else list(uc)
        assert order == sorted((keys[i], ids[i], i) for i in range(len(ids)))


_NODE_IDS = ("a", "b", "c", "d", "e", "f")
_STATE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(_NODE_IDS)),
        st.tuples(st.just("allocate"), st.integers(0, 11), st.sampled_from([0.0, 10.0, 25.0, 40.0])),
        st.tuples(st.just("release"), st.integers(0, 30)),
        st.tuples(st.just("remove"), st.integers(0, 11)),
        st.tuples(st.just("order"), st.sampled_from(["id", "descending", "ascending"])),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.25]), max_size=4),
    st.sets(st.sampled_from(["id", "descending", "ascending"])),
    _STATE_OPS,
)
def test_cluster_state_orders_stay_sorted(initial_util, built, ops) -> None:
    nodes = [node(_NODE_IDS[k], template(), (u, u, u)) for k, u in enumerate(initial_util)]
    state = ClusterState(nodes)
    orders = {
        "id": state.id_order,
        "descending": lambda: state.util_order(True),
        "ascending": lambda: state.util_order(False),
    }
    live = {name: orders[name]() for name in built}
    held = []
    for step, op in enumerate(ops):
        kind = op[0]
        if kind == "add" and op[1] not in state.index:
            state.add_node(op[1], template())
        elif kind == "allocate" and len(state):
            i = op[1] % len(state)
            c = op[2]
            pct = state.allocate(i, f"r{step}", ResourceVector(c, c / 2, c / 4))
            held.append((state.ids[i], f"r{step}", pct))
        elif kind == "release" and held:
            node_id, request_id, pct = held.pop(op[1] % len(held))
            state.release(node_id, request_id, pct)
        elif kind == "remove" and len(state):
            node_id = state.ids[op[1] % len(state)]
            state.remove(node_id)
            held = [h for h in held if h[0] != node_id]
        elif kind == "order":
            live.setdefault(op[1], orders[op[1]]())
        _assert_orders_sorted(state)
        for name, order in live.items():
            assert orders[name]() is order


def test_state_reserves_its_current_ids_in_a_returning_sequence() -> None:
    # A sequence that comes back for the same state skips the ids added
    # since its last call, and only those still in the state, as a sequence
    # reserving every current id on every call would.
    state = ClusterState([node("n1")])
    seq = NodeIdSequence()
    config = _config(autoscale=True)
    big = 70.0  # fills a node past the point where another fits

    def place(rid: str) -> str:
        return schedule_max_util([request(rid, big)], state, config, id_sequence=seq).allocation[rid]

    assert place("r1") == "n1"
    assert place("r2") == "auto-1"
    state.add_node("auto-2", template())
    state.add_node("auto-3", template())
    state.remove("auto-3")
    assert place("r3") == "auto-2"
    assert place("r4") == "auto-3"
    assert place("r5") == "auto-4"
