"""Conservation in every mode: a node's utilization is the sum of the
percentages of the requests it holds.

test_06 checks this on the default configuration. These properties cover
the three algorithms with resort_after_each_allocation on and off, both
power modes with off_when_empty on and off, autoscaling, releases between
batch calls on one ClusterState, and timelines with scale-down and
retain_min_nodes, over demands at, a few ulps around, and fractions of
the threshold. The percentages come from the decision records, so a
scheduler that books one amount and records another fails as well.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable

from hypothesis import given, settings
from hypothesis import strategies as st

from gptsched import (
    ALGORITHMS,
    AdaptorPolicy,
    EventKind,
    Node,
    PowerMode,
    PowerPolicy,
    SchedulerConfig,
    Threshold,
    UtilizationVector,
    run_timeline,
)
from gptsched.scheduling import ClusterState

from helpers import node, request, template

_CAPACITIES = (50.0, 100.0, 200.0)
_THRESHOLDS = (0.3, 0.5, 0.8, 1.0)
# Fractions of the threshold: at it, an ulp or a hair either side, and
# shares that add up to it exactly.
_FACTORS = st.sampled_from(
    [1.0, 1.0 - 2**-52, 1.0 + 2**-52, 1.0 - 1e-10, 1.0 + 1e-10, 0.5, 0.25, 1 / 3, 0.0]
) | st.floats(min_value=0.0, max_value=1.2)


@st.composite
def _configs(draw: st.DrawFn) -> SchedulerConfig:
    autoscale = draw(st.sampled_from([None, template(), template(compute=50.0, memory=200.0)]))
    return SchedulerConfig(
        threshold=Threshold(draw(st.sampled_from(_THRESHOLDS))),
        autoscale_template=autoscale,
        resort_after_each_allocation=draw(st.booleans()),
        power_policy=PowerPolicy(mode=draw(st.sampled_from(list(PowerMode))), off_when_empty=draw(st.booleans())),
    )


@st.composite
def _nodes(draw: st.DrawFn, residents: bool) -> list:
    nodes = []
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        tpl = template(
            *(draw(st.sampled_from(_CAPACITIES)) for _ in range(3)),
            p_idle=draw(st.sampled_from([0.0, 50.0, 100.0])),
            p_max=draw(st.sampled_from([150.0, 300.0])),
        )
        util = draw(st.sampled_from([None, (0.1, 0.2, 0.0), (0.5, 0.5, 0.5), (0.79, 0.0, 0.3)])) if residents else None
        nodes.append(node(f"n{i}", tpl, util))
    return nodes


@st.composite
def _demand(draw: st.DrawFn, threshold: float) -> tuple:
    return tuple(draw(st.sampled_from(_CAPACITIES)) * threshold * draw(_FACTORS) for _ in range(3))


def _check(views: Iterable[Node], pcts: Dict[str, UtilizationVector], placed: Dict[str, str]) -> None:
    # Each node's utilization is the exact sum of its requests' pcts within
    # 1e-9, and the nodes hold exactly the placed requests.
    holding = {}
    for view in views:
        for request_id in view.allocated:
            holding[request_id] = view.id
        for axis, used in enumerate(view.utilization.as_tuple()):
            total = math.fsum(pcts[request_id].as_tuple()[axis] for request_id in view.allocated)
            assert abs(used - total) <= 1e-9, (view.id, axis, used, total)
    assert holding == placed


@settings(max_examples=150, deadline=None)
@given(algorithm=st.sampled_from(sorted(ALGORITHMS)), config=_configs(), via_state=st.booleans(), data=st.data())
def test_batch_calls_conserve_utilization(algorithm, config, via_state, data) -> None:
    nodes = data.draw(_nodes(residents=True))
    # A resident allocation's pct is the utilization its node starts with.
    pcts = {request_id: n.utilization for n in nodes for request_id in n.allocated}
    placed = {request_id: n.id for n in nodes for request_id in n.allocated}
    cluster = ClusterState(nodes, config.power_policy) if via_state else nodes
    threshold = config.threshold.value
    for call in range(data.draw(st.integers(min_value=1, max_value=3))):
        size = data.draw(st.integers(min_value=1, max_value=5))
        queue = [request(f"c{call}-r{j}", *data.draw(_demand(threshold))) for j in range(size)]
        outcome = ALGORITHMS[algorithm](queue, cluster, config)
        for record in outcome.trace:
            if record.chosen_node_id is not None:
                pcts[record.request_id] = record.pct
                placed[record.request_id] = record.chosen_node_id
        _check(cluster, pcts, placed)
        if via_state and placed:
            # Releases between calls, as a timeline's departures make them.
            for request_id in data.draw(st.lists(st.sampled_from(sorted(placed)), unique=True)):
                cluster.release(placed.pop(request_id), request_id, pcts[request_id])
            _check(cluster, pcts, placed)


@settings(max_examples=100, deadline=None)
@given(algorithm=st.sampled_from(sorted(ALGORITHMS)), config=_configs(), data=st.data())
def test_timeline_conserves_utilization_at_every_event(algorithm, config, data) -> None:
    initial = data.draw(_nodes(residents=False))
    threshold = config.threshold.value
    workload = [
        request(
            f"r{j:02d}",
            *data.draw(_demand(threshold)),
            arrival_s=data.draw(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(min_value=0.0, max_value=20.0)),
            duration_s=data.draw(st.sampled_from([1.0, 1.5]) | st.floats(min_value=0.5, max_value=10.0)),
        )
        for j in range(data.draw(st.integers(min_value=1, max_value=8)))
    ]
    adaptor = AdaptorPolicy(
        scale_down_grace_s=data.draw(st.sampled_from([0.0, 1.0, 5.0])),
        retain_min_nodes=data.draw(st.integers(min_value=0, max_value=3)),
    )
    seen = []
    result = run_timeline(
        workload, initial, algorithm, config, adaptor, data.draw(st.sampled_from([1.0, 2.5])),
        on_event=lambda event, views: seen.append((event, list(views))),
    )
    records = {record.request_id: record for record in result.outcome.trace}
    pcts = {request_id: record.pct for request_id, record in records.items() if record.pct is not None}
    placed: Dict[str, str] = {}
    for event, views in seen:
        if event.kind is EventKind.ARRIVAL and records[event.request_id].chosen_node_id is not None:
            placed[event.request_id] = records[event.request_id].chosen_node_id
        elif event.kind is EventKind.DEPARTURE:
            del placed[event.request_id]
        _check(views, pcts, placed)
    assert len(seen) >= 2 * len(pcts)
