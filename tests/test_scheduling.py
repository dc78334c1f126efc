"""The three schedulers: hand traces, pins, and oracle spot checks."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
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
    default_config,
    fits,
    generate_synthetic,
    schedule_load_balance,
    schedule_max_util,
    schedule_power_efficient,
    utilization_stddev,
)
from gptsched import scheduling
from gptsched.model import TOLERANCE
from gptsched.scheduling import REASON_INFEASIBLE_ON_ANY_NODE, REASON_NO_FEASIBLE_NODE, ClusterState, ScanPrefix

from helpers import node, profiled_request, random_instance, request, template
from naive_reference import ref_first_fit_records, ref_load_balance, ref_max_util, ref_power_efficient


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
    assert seq.next_id() == "auto-2"
    assert seq.next_id() == "auto-3"


def test_created_node_ids_sequence_skips_held_ids() -> None:
    seq = NodeIdSequence(["auto-1"])
    assert seq.next_id({"auto-2"}) == "auto-3"
    assert seq.next_id() == "auto-4"


def test_created_node_ids_sequence_from_scratch() -> None:
    seq = NodeIdSequence()
    assert seq.next_id() == "auto-1"
    assert seq.next_id() == "auto-2"


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
        nodes = list(config.initial_nodes)
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


@settings(max_examples=200, deadline=None)
@example([0.5, 0.75], {"descending", "ascending"}, 60.0, True, False)
@example([0.5, 0.75], {"id"}, 60.0, False, True)
@given(
    st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75]), max_size=6),
    st.sets(st.sampled_from(["id", "descending", "ascending"])),
    st.sampled_from([10.0, 30.0, 60.0, 80.0]),
    st.booleans(),
    st.booleans(),
)
def test_one_request_call_scans_the_live_order_in_place(initial_util, built, demand, descending, resort) -> None:
    # A one-request first-fit call reads the state's live order without a
    # copy. A node it creates enters that order once, through add_node.
    nodes = [node(_NODE_IDS[k], template(), (u, u, u)) for k, u in enumerate(initial_util)]
    state = ClusterState(nodes)
    orders = {
        "id": state.id_order,
        "descending": lambda: state.util_order(True),
        "ascending": lambda: state.util_order(False),
    }
    live = {name: orders[name]() for name in built}
    before = [entry[1] for entry in state.util_order(descending)]
    schedule = schedule_max_util if descending else schedule_load_balance
    config = _config(autoscale=True, resort_after_each_allocation=resort)
    record = schedule([request("q", demand, demand, demand)], state, config).trace[0]

    _assert_orders_sorted(state)
    for name, order in live.items():
        assert orders[name]() is order
    if record.created_node:
        assert len(state) == len(nodes) + 1
        assert record.scanned == tuple(before)
    else:
        assert record.scanned == tuple(before[: len(record.scanned)])
        assert record.chosen_node_id == record.scanned[-1]


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


def test_scan_prefix_equals_and_hashes_like_the_tuple_of_its_ids() -> None:
    base = ["a", "b", "c"]
    view = ScanPrefix(base, 2)
    assert view == ("a", "b") and ("a", "b") == view
    assert not view != ("a", "b") and not ("a", "b") != view
    assert view != ("a",) and ("a", "b", "c") != view and view != ["a", "b"]
    assert hash(view) == hash(("a", "b"))
    assert {("a", "b"): 1}[view] == 1 and {view: 2}[("a", "b")] == 2
    # Against another view: the same ids over another list or a tuple, or
    # another length.
    for other in (ScanPrefix(["a", "b", "x", "y"], 2), ScanPrefix(("a", "b"), 2)):
        assert view == other and other == view and hash(view) == hash(other)
    assert view == ScanPrefix(base, 2) and view != ScanPrefix(base, 3)
    assert ScanPrefix(["a", "x"], 2) != view and ScanPrefix(("a", "b", "c"), 3) != view


def test_scan_prefix_reads_like_a_tuple() -> None:
    base = ["a", "b", "c"]
    view = ScanPrefix(base, 2)
    assert len(view) == 2 and view[0] == "a" and view[1] == "b"
    assert view[-1] == "b" and view[-2] == "a"
    for index in (2, 3, -3):
        with pytest.raises(IndexError):
            view[index]
    assert view[:] == ("a", "b") and view[1:] == ("b",) and view[::-1] == ("b", "a") and view[5:] == ()
    assert list(view) == ["a", "b"] and list(reversed(view)) == ["b", "a"]
    assert "b" in view and "c" not in view and view.index("b") == 1 and view.count("a") == 1
    assert repr(view) == "ScanPrefix(('a', 'b'))"
    empty = ScanPrefix(base, 0)
    assert empty == () and () == empty and hash(empty) == hash(())
    assert len(empty) == 0 and not empty and list(empty) == [] and empty[:] == ()
    assert repr(empty) == "ScanPrefix(())"
    with pytest.raises(IndexError):
        empty[0]


def test_scan_prefix_keeps_its_contents_when_its_list_grows() -> None:
    base = ["a", "b"]
    short, full = ScanPrefix(base, 1), ScanPrefix(base, 2)
    base.extend(["c", "d"])
    assert short == ("a",) and full == ("a", "b")
    assert list(full) == ["a", "b"] and full[-1] == "b" and full[:] == ("a", "b")
    assert len(full) == 2 and hash(full) == hash(("a", "b"))


def test_sort_once_decisions_share_one_scanned_list() -> None:
    # Every record of the call, the first included, views one list, grown
    # only as far as a scan reached: auto-2, created by the last request,
    # was never scanned.
    nodes = [node("n1"), node("n2")]
    outcome = schedule_max_util(
        [request(f"r{k}", 70.0) for k in range(4)], nodes, _config(autoscale=True)
    )
    views = [record.scanned for record in outcome.trace]
    assert [tuple(v) for v in views] == [("n1",), ("n1", "n2"), ("n1", "n2"), ("n1", "n2", "auto-1")]
    assert outcome.created_node_ids == ("auto-1", "auto-2")
    assert len({id(v.base) for v in views}) == 1
    assert views[0].base == ["n1", "n2", "auto-1"]


# Capacities and demands of the exactness instances: demand/capacity ratios
# land on, just under and just over common thresholds.
_CAPACITIES = (3.0, 50.0, 100.0, 200.0, 1000.0)
_DEMANDS = (0.0, 1.0, 5.0, 10.0, 25.0, 50.0, 120.0, 5000.0)


def _ulps(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.inf if steps > 0 else -math.inf)
    return value


@st.composite
def _first_fit_instances(draw):
    # Hypothesis picks the shape; a seeded Random fills in the values, so a
    # 100-node cluster costs one draw, not hundreds.
    threshold = draw(st.sampled_from([0.5, 0.8, 1.0]))
    size = draw(st.sampled_from([0, 1, 4]) | st.integers(100, 130))
    count = draw(st.integers(0, 60))
    rng = draw(st.randoms(use_true_random=False))
    limit = threshold + TOLERANCE

    def axis_util(cap: float) -> float:
        # Zero, anywhere, or within a few ulps of where a demand exactly
        # meets threshold + TOLERANCE.
        kind = rng.choice(["zero", "any", "limit", "edge"])
        if kind == "zero":
            return 0.0
        if kind == "any":
            return rng.uniform(0.0, 1.1)
        edge = limit if kind == "limit" else limit - rng.choice(_DEMANDS) / cap
        return max(0.0, _ulps(edge, rng.randint(-3, 3)))

    nodes = []
    for k in range(size):
        caps = [rng.choice(_CAPACITIES) for _ in range(3)]
        nodes.append(node(f"n{k:03d}", template(*caps), tuple(axis_util(cap) for cap in caps)))
    requests = [request(f"r{j:03d}", *(rng.choice(_DEMANDS) for _ in range(3))) for j in range(count)]
    autoscale = template(*(rng.choice(_CAPACITIES) for _ in range(3))) if rng.random() < 0.5 else None
    return requests, nodes, threshold, autoscale


def _assert_first_fit_matches_reference(requests, nodes, threshold, autoscale) -> None:
    config = SchedulerConfig(threshold=Threshold(threshold), autoscale_template=autoscale)
    for scheduler, reference, descending in (
        (schedule_max_util, ref_max_util, True),
        (schedule_load_balance, ref_load_balance, False),
    ):
        placed = list(nodes)
        outcome = scheduler(requests, placed, config)
        want = reference(requests, list(nodes), threshold, autoscale)
        assert outcome.allocation == want["allocation"]
        assert list(outcome.unallocated) == want["unallocated"]
        assert list(outcome.created_node_ids) == want["created"]
        assert {n.id: list(n.utilization.as_tuple()) for n in placed} == {
            s["id"]: s["util"] for s in want["nodes"]
        }
        records = [
            (r.request_id, r.scanned, r.chosen_node_id, r.created_node, r.pct and r.pct.as_tuple(), r.reason)
            for r in outcome.trace
        ]
        want_records = ref_first_fit_records(requests, list(nodes), threshold, descending, autoscale)
        assert records == want_records
        assert [len(r.scanned) for r in outcome.trace] == [len(w[1]) for w in want_records]


@settings(max_examples=80, deadline=None)
@given(_first_fit_instances())
def test_sort_once_first_fit_matches_naive_reference_exactly(instance) -> None:
    _assert_first_fit_matches_reference(*instance)


@pytest.mark.parametrize("size", [1, 4, 100, 130])
def test_sort_once_first_fit_exact_across_tree_doublings(size: int) -> None:
    # Every request fills most of a fresh node, so the cluster grows by one
    # node per request past several powers of two.
    rng = random.Random(size)
    nodes = [node(f"n{k:03d}", template(), (rng.choice([0.0, 0.3, 0.75]), 0.0, 0.0)) for k in range(size)]
    requests = [request(f"r{j:03d}", rng.choice([0.0, 30.0, 50.0, 60.0, 80.0, 90.0])) for j in range(150)]
    _assert_first_fit_matches_reference(requests, nodes, 0.8, template())


class _CountedCapacity(float):
    """A compute capacity that counts divisions by it. The exact
    feasibility test divides a demand by a node's compute capacity once
    per node examined; allocating divides once more."""

    divisions = 0

    def __rtruediv__(self, other: float) -> float:
        _CountedCapacity.divisions += 1
        return float.__rtruediv__(self, other)


@pytest.mark.parametrize(
    "scheduler, blocked_util, open_util",
    [
        # Blocked nodes scan first: fuller by compute (max-util), or
        # emptier by compute but out of memory (load-balance).
        (schedule_max_util, (0.75, 0.0, 0.0), (0.1, 0.0, 0.0)),
        (schedule_load_balance, (0.0, 0.8, 0.0), (0.1, 0.0, 0.0)),
    ],
)
def test_sort_once_first_fit_tests_each_node_about_once(monkeypatch, scheduler, blocked_util, open_util) -> None:
    # M requests on N >> M nodes, the first feasible one deep in the scan
    # order: O(log N) per pick from the first one on, not N.
    n, m = 2000, 60
    nodes = [node(f"b{k:04d}", template(), blocked_util) for k in range(n - 16)]
    nodes += [node(f"o{k:02d}", template(), open_util) for k in range(16)]
    state = ClusterState(nodes)
    state.cc[:] = map(_CountedCapacity, state.cc)
    monkeypatch.setattr(_CountedCapacity, "divisions", 0)
    outcome = scheduler([request(f"r{j:03d}", 10.0, 10.0) for j in range(m)], state, _config())
    assert len(outcome.allocation) == m and not outcome.created_node_ids
    assert all(node_id.startswith("o") for node_id in outcome.allocation.values())
    assert _CountedCapacity.divisions < n


_SHARED_SEQUENCE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(["a", "b", "auto-1", "auto-2", "auto-3", "auto-5", "auto-8"])),
        st.tuples(st.just("remove"), st.integers(0, 20)),
        st.tuples(
            st.just("schedule"),
            st.sampled_from([schedule_max_util, schedule_load_balance, schedule_power_efficient]),
            st.lists(st.sampled_from([30.0, 60.0, 90.0]), min_size=1, max_size=4),
            st.booleans(),
        ),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@example([("add", "auto-1"), ("schedule", schedule_max_util, [60.0, 60.0, 60.0], False), ("remove", 1)])
@given(_SHARED_SEQUENCE_OPS)
def test_created_ids_skip_the_live_ids_of_a_state_sharing_one_sequence(ops) -> None:
    # Outside add_node and remove calls interleave with scheduler calls that
    # share one sequence. A created id is never held by the cluster when it
    # is created, never issued twice, and always the next auto-k up.
    state = ClusterState([node("n1")])
    seq = NodeIdSequence(state.ids)
    created = []
    for step, op in enumerate(ops):
        kind = op[0]
        if kind == "add" and op[1] not in state.index:
            state.add_node(op[1], template())
        elif kind == "remove" and len(state):
            state.remove(state.ids[op[1] % len(state)])
        elif kind == "schedule":
            _, schedule, demands, resort = op
            live = set(state.ids)
            queue = [request(f"r{step}-{k}", c, c / 2, c / 4) for k, c in enumerate(demands)]
            config = _config(autoscale=True, resort_after_each_allocation=resort)
            outcome = schedule(queue, state, config, id_sequence=seq)
            assert not live & set(outcome.created_node_ids)
            created.extend(outcome.created_node_ids)
    assert len(set(created)) == len(created)
    assert all(node_id.startswith("auto-") for node_id in created)
    numbers = [int(node_id[len("auto-"):]) for node_id in created]
    assert numbers == sorted(numbers)


@settings(max_examples=100, deadline=None)
@example([0.5, 0.75], set(), [60.0, 30.0], True, True)
@given(
    st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75]), max_size=6),
    st.sets(st.sampled_from(["id", "descending", "ascending"])),
    st.lists(st.sampled_from([10.0, 30.0, 60.0, 80.0]), min_size=2, max_size=5),
    st.booleans(),
    st.booleans(),
)
def test_sort_once_call_of_several_requests_leaves_the_state_orders(
    initial_util, built, demands, descending, autoscale
) -> None:
    # A sort-once first-fit call of several requests scans an order of its
    # own: the state keeps the orders it had, as the same lists, each still
    # equal to a fresh sort.
    nodes = [node(_NODE_IDS[k], template(), (u, u, u)) for k, u in enumerate(initial_util)]
    state = ClusterState(nodes)
    for name in built:
        if name == "id":
            state.id_order()
        else:
            state.util_order(name == "descending")
    orders = dict(state.by_util)
    schedule = schedule_max_util if descending else schedule_load_balance
    queue = [request(f"q{k}", c, c, c) for k, c in enumerate(demands)]
    schedule(queue, state, _config(autoscale=autoscale))

    assert state.by_util.keys() == orders.keys()
    for direction, order in orders.items():
        assert state.by_util[direction] is order
    _assert_orders_sorted(state)


class _CheckedTree(scheduling._HeadroomTree):
    """A headroom tree that, whenever a pick asks it for candidates, checks
    its three arrays against a fresh _build over the same order."""

    checks = 0

    def candidates(self, dc: float, dm: float, ds: float):
        fresh = object.__new__(scheduling._HeadroomTree)
        fresh.state, fresh.order, fresh.margin, fresh.size = self.state, self.order, self.margin, 1
        fresh._build()
        assert (self.size, self.hc, self.hm, self.hs) == (fresh.size, fresh.hc, fresh.hm, fresh.hs)
        _CheckedTree.checks += 1
        return super().candidates(dc, dm, ds)


# Demands on each axis of a capacity-100 node at threshold 0.8: ties, exact
# fits of the limit alone and in pairs, and a few ulps either side.
_TREE_DEMANDS = (0.0, 10.0, 20.0, 40.0, 40.0, 80.0, math.nextafter(80.0, 0.0), math.nextafter(80.0, 100.0),
                 math.nextafter(40.0, 100.0), 79.99999999, 80.0000001, 150.0)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.1, 0.4, 0.5, 0.75, 0.8]), max_size=8),
    st.lists(
        st.tuples(st.booleans(), st.lists(st.tuples(*[st.sampled_from(_TREE_DEMANDS)] * 3), min_size=3, max_size=30)),
        min_size=1,
        max_size=4,
    ),
)
def test_headroom_tree_refresh_matches_a_fresh_build(initial_util, calls) -> None:
    # Sort-once max-util and load-balance calls with autoscale on, one after
    # another on one state: after every refresh the tree equals a rebuild.
    state = ClusterState([node(f"n{k}", template(), (u, u * 0.5, u)) for k, u in enumerate(initial_util)])
    checks = _CheckedTree.checks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduling, "_HeadroomTree", _CheckedTree)
        for step, (descending, demands) in enumerate(calls):
            schedule = schedule_max_util if descending else schedule_load_balance
            queue = [request(f"q{step}-{k}", *demand) for k, demand in enumerate(demands)]
            schedule(queue, state, _config(autoscale=True))
    assert _CheckedTree.checks - checks >= sum(len(demands) - 1 for _, demands in calls)


@pytest.mark.parametrize("policy", [PowerPolicy(), PowerPolicy(mode=PowerMode.ABSOLUTE_AFTER, off_when_empty=False)])
def test_a_cluster_state_must_share_the_config_power_policy(policy) -> None:
    # A warm node b and an empty node a: under the default policy waking a
    # costs its idle draw, so the power scheduler picks b.
    def nodes():
        return [node("a"), node("b", template(), (0.5, 0.5, 0.5))]

    config = _config(power_policy=policy)
    expected = schedule_power_efficient([request("r", 10.0)], nodes(), config).allocation["r"]
    assert expected == ("b" if policy.off_when_empty else "a")
    # An equal policy built separately places as the node list does.
    state = ClusterState(nodes(), PowerPolicy(policy.mode, policy.off_when_empty))
    assert schedule_power_efficient([request("r", 10.0)], state, config).allocation["r"] == expected
    other = PowerPolicy(policy.mode, not policy.off_when_empty)
    for scheduler in (schedule_power_efficient, schedule_max_util, schedule_load_balance):
        with pytest.raises(ValidationError, match="priced with") as raised:
            scheduler([request("q", 10.0)], ClusterState(nodes(), other), config)
        assert repr(other) in str(raised.value) and repr(policy) in str(raised.value)
