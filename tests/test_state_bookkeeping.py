"""ClusterState holds each allocation once, and the outcome writer streams it.

The state records where each held request is in one map, request id ->
node id, beside a count per node; a node is empty when its count is 0.
A hypothesis property replays random add_node/allocate/release/remove
sequences against a dict of request-id sets kept here and checks the
map, the counts, the draws and the Node views after every step. Its
zero-compute demands leave an allocated node at utilization 0 drawing
p_idle, so an emptiness test on utilization fails it. Two cost guards
bound the state's bytes per held request and the outcome writer's traced
peak; both fail when each allocation is also kept in a per-node set and
when the allocation map is joined into one string.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Dict, List, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptsched import Node, PowerPolicy, ResourceVector, SchedulerConfig, UtilizationVector, run_batch
from gptsched.model import NotAllocatedError
from gptsched.reportio import write_outcome_document
from gptsched.scheduling import ClusterState

from helpers import node, request, template

TEMPLATES = (template(), template(compute=50.0, memory=200.0, storage=80.0, p_idle=60.0, p_max=250.0))

_STEP = st.tuples(
    st.sampled_from(("add", "allocate", "allocate", "release", "release", "remove")),
    st.integers(min_value=0, max_value=1 << 16),
    st.booleans(),
)


class _Replay:
    """Where each request is, as one set of request ids per node id, with
    each node's template and compute utilization beside it."""

    def __init__(self, nodes: List[Node]) -> None:
        self.held: Dict[str, Set[str]] = {n.id: set(n.allocated) for n in nodes}
        self.templates = {n.id: n.template for n in nodes}
        self.uc = {n.id: n.utilization.compute for n in nodes}

    def expected_power(self, policy: PowerPolicy) -> List[float]:
        watts = []
        for node_id, held in self.held.items():
            tpl = self.templates[node_id]
            off = policy.off_when_empty and not held
            watts.append(0.0 if off else tpl.p_idle_w + (tpl.p_max_w - tpl.p_idle_w) * self.uc[node_id])
        return watts


def _check(state: ClusterState, replay: _Replay, policy: PowerPolicy) -> None:
    assert state.ids == list(replay.held)
    assert state.node_of == {rid: node_id for node_id, held in replay.held.items() for rid in held}
    assert state.count == [len(held) for held in replay.held.values()]
    assert state.power == replay.expected_power(policy)
    views = list(state)
    assert [view.allocated for view in views] == [frozenset(held) for held in replay.held.values()]
    assert state[1:] == views[1:]
    for i, view in enumerate(views):
        assert state[i] == view
        assert state[i - len(views)] == view


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    residents=st.lists(st.tuples(st.sampled_from((0.0, 0.25)), st.booleans()), max_size=4),
    steps=st.lists(_STEP, max_size=40),
    off_when_empty=st.booleans(),
)
def test_the_map_and_counts_replay_a_dict_of_sets(residents, steps, off_when_empty) -> None:
    policy = PowerPolicy(off_when_empty=off_when_empty)
    initial: List[Node] = []
    pcts: Dict[str, UtilizationVector] = {}
    for k, (compute, holds) in enumerate(residents):
        node_id, rid = f"n{k}", f"resident-n{k}"
        if holds:  # a resident at zero compute keeps its node warm
            pcts[rid] = UtilizationVector(compute, 0.0, 0.0)
            initial.append(Node(node_id, TEMPLATES[k % 2], utilization=pcts[rid], allocated=frozenset({rid})))
        else:
            initial.append(Node(node_id, TEMPLATES[k % 2]))
    state = ClusterState(initial, policy)
    replay = _Replay(initial)
    _check(state, replay, policy)
    for step, (kind, pick, flag) in enumerate(steps):
        ids = list(replay.held)
        if kind == "add":
            node_id, tpl = f"m{step}", TEMPLATES[pick % 2]
            assert state.add_node(node_id, tpl) == len(ids)
            replay.held[node_id], replay.templates[node_id], replay.uc[node_id] = set(), tpl, 0.0
        elif kind == "allocate" and ids:
            node_id, rid = ids[pick % len(ids)], f"r{step}"
            demand = ResourceVector(0.0 if flag else float(1 + pick % 9), float(pick % 5), 1.0)
            pcts[rid] = state.allocate(state.index[node_id], rid, demand)
            replay.held[node_id].add(rid)
            replay.uc[node_id] += demand.compute / replay.templates[node_id].capacity.compute
        elif kind == "release":
            held = sorted((rid, node_id) for node_id, rids in replay.held.items() for rid in rids)
            if flag or not held:  # a request the map does not place on that node
                rid, owner = held[pick % len(held)] if held else ("ghost", None)
                others = [n for n in ids if n != owner]
                if others:
                    with pytest.raises(NotAllocatedError):
                        state.release(others[pick % len(others)], rid, UtilizationVector(0.0, 0.0, 0.0))
            else:
                rid, node_id = held[pick % len(held)]
                replay.held[node_id].discard(rid)
                left = replay.held[node_id]
                replay.uc[node_id] = max(0.0, replay.uc[node_id] - pcts[rid].compute) if left else 0.0
                assert state.release(node_id, rid, pcts[rid]) is (not left)
        elif kind == "remove" and ids:
            node_id = ids[pick % len(ids)]
            state.remove(node_id)
            del replay.held[node_id], replay.templates[node_id], replay.uc[node_id]
        _check(state, replay, policy)


def test_state_holds_at_most_64_bytes_per_held_request() -> None:
    # One map entry and a count cost 27-38 B per held request; a per-node
    # set beside a set of every held id cost 107-150 B.
    state = ClusterState([node(f"node-{i}") for i in range(50)])
    rids = [f"req-{k:06d}" for k in range(2000)]
    demand = ResourceVector(0.001, 0.001, 0.001)
    gc.collect()
    tracemalloc.start()
    try:
        for k, rid in enumerate(rids):
            state.allocate(k % 50, rid, demand)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / len(rids) <= 64, f"{held / len(rids):.1f} B per held request"


def test_outcome_writer_peak_is_at_most_185_bytes_per_decision(tmp_path) -> None:
    # 4000 decisions on an autoscaling cluster (about 200 nodes): the writer
    # peaks at about 159 B per decision when the allocation map leaves pair
    # by pair, and at about 210 B when it is joined into one string first.
    workload = [request(f"req-{k:06d}", 1.0 + k % 7, 2.0, 1.0) for k in range(4000)]
    config = SchedulerConfig(autoscale_template=template())
    outcome, report = run_batch(workload, [node(f"node-{i}") for i in range(4)], "max-util", config)
    path = tmp_path / "outcome.json"
    gc.collect()
    tracemalloc.start()
    try:
        write_outcome_document("max-util", outcome, report, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(outcome.allocation) == 4000 and path.stat().st_size > 4_000_000
    assert peak / 4000 <= 185, f"{peak / 4000:.1f} B per decision"
