"""The timeline keeps its results as columns and its arrivals out of the heap.

run_timeline appends events, power steps and snapshot rows to parallel
lists, and TimelineResult reads them through read-only views that stand
for the tuples: equal and hash-equal both ways, indexed, sliced into
tuples, and building each SimEvent, (time_s, watts) pair or SnapshotRow
on access. Arrivals are merged from the sorted workload, so the event
heap holds departures and scale checks only. The cost guards fail when
results are kept as one object per entry or arrivals are heaped.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import tracemalloc
import types
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptsched import (
    ALGORITHMS,
    AdaptorPolicy,
    LognormalSpec,
    SchedulerConfig,
    SimEvent,
    SnapshotRow,
    generate_synthetic,
    run_timeline,
)
from gptsched.simulator import ColumnView
from gptsched.workload import GeneratorSpec

from helpers import node, request
from test_conservation_modes import _configs, _demand, _nodes


def _timed_workload(count: int) -> list:
    spec = GeneratorSpec(
        request_count=count, seed=11, arrival_rate_per_s=8.0, duration_dist=LognormalSpec(4.0, 0.5)
    )
    return generate_synthetic(spec)


@pytest.mark.parametrize("interval", [60.0, 5.0])
def test_results_hold_at_most_64_bytes_per_entry(interval: float) -> None:
    # The bytes still held by the three results once the rest of the run is
    # dropped. One object per entry (a SimEvent, a pair or a SnapshotRow
    # beside its list slot) costs 91-103 B; columns cost a list slot per
    # cell plus the floats no other entry shares.
    workload = _timed_workload(2000)
    nodes = [node(f"node-{i}") for i in range(1, 101)]
    adaptor = AdaptorPolicy(scale_down_grace_s=300.0)

    def run():  # type: ignore[no-untyped-def]
        return run_timeline(workload, nodes, "max-util", SchedulerConfig(record_scans=False), adaptor, interval)

    run()  # warm every cache the run fills
    gc.collect()
    tracemalloc.start()
    try:
        result = run()
        kept = (result.events, result.power_steps, result.snapshots)
        del result
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = sum(map(len, kept))
    assert len(kept[2]) >= 1000 and len(kept[0]) > 3000
    assert held / entries <= 64, f"{held / entries:.1f} B per entry over {entries} entries"


def test_event_heap_holds_departures_and_scale_checks_only(monkeypatch: pytest.MonkeyPatch) -> None:
    # 500 arrivals 1 s apart lasting 3 s each: at most 3-4 requests are
    # live and a few emptied nodes armed, whatever the workload's length.
    sizes: List[int] = []

    def watched(name: str):  # type: ignore[no-untyped-def]
        def call(heap, *args):  # type: ignore[no-untyped-def]
            out = getattr(heapq, name)(heap, *args)
            sizes.append(len(heap))
            return out

        return call

    monkeypatch.setattr(
        "gptsched.simulator.heapq",
        types.SimpleNamespace(**{name: watched(name) for name in ("heapify", "heappush", "heappop")}),
    )
    workload = [request(f"r{i:03d}", 60.0, arrival_s=float(i), duration_s=3.0) for i in range(500)]
    nodes = [node(f"node-{i}") for i in range(1, 6)]
    result = run_timeline(
        workload, nodes, "load-balance", SchedulerConfig(), AdaptorPolicy(scale_down_grace_s=1.0), 10.0
    )
    assert len(result.outcome.allocation) == 500
    assert sizes and max(sizes) <= 20


@st.composite
def _timelines(draw: st.DrawFn):  # type: ignore[no-untyped-def]
    config = draw(_configs())
    initial = draw(_nodes(residents=False))
    workload = [
        request(
            f"r{j:02d}",
            *draw(_demand(config.threshold.value)),
            arrival_s=draw(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(min_value=0.0, max_value=20.0)),
            duration_s=draw(st.sampled_from([1.0, 1.5]) | st.floats(min_value=0.5, max_value=10.0)),
        )
        for j in range(draw(st.integers(min_value=0, max_value=8)))
    ]
    adaptor = AdaptorPolicy(
        scale_down_grace_s=draw(st.sampled_from([0.0, 1.0, 5.0])),
        retain_min_nodes=draw(st.integers(min_value=0, max_value=3)),
    )
    algorithm = draw(st.sampled_from(sorted(ALGORITHMS)))
    interval = draw(st.sampled_from([1.0, 2.5, 7.0]))
    return run_timeline(workload, initial, algorithm, config, adaptor, interval)


def _check_view(view, items: tuple, item_types) -> None:  # type: ignore[no-untyped-def]
    assert isinstance(view, ColumnView)
    assert view == items and items == view and not (view != items) and not (items != view)
    assert view == ColumnView(view.make, *view.columns) and view == view[:]
    assert hash(view) == hash(items)
    longer = items + (items[-1] if items else (),)
    assert view != longer and longer != view and view != list(items) and (not items or view != items[1:])
    assert len(view) == len(items) and list(view) == list(items)
    for index in range(-len(items), len(items)):
        assert view[index] == items[index]
    for index in (len(items), -len(items) - 1):
        with pytest.raises(IndexError):
            view[index]
    for sliced in (slice(None), slice(1, None, 2), slice(-3, None), slice(None, -1), slice(None, None, -1),
                   slice(-2, -5, -2), slice(5, 2)):
        part = view[sliced]
        assert type(part) is tuple and part == items[sliced]
    for item in view:
        assert isinstance(item, item_types) and type(item[0] if isinstance(item, tuple) else item.time_s) is float


@settings(max_examples=60, deadline=None)
@given(result=_timelines())
def test_result_views_stand_for_their_tuples(result) -> None:  # type: ignore[no-untyped-def]
    events, steps, rows = tuple(result.events), tuple(result.power_steps), tuple(result.snapshots)
    _check_view(result.events, events, SimEvent)
    _check_view(result.snapshots, rows, SnapshotRow)
    _check_view(result.power_steps, steps, tuple)
    assert all(type(s) is tuple and len(s) == 2 for s in steps)
    assert all(type(row) is SnapshotRow for row in rows) and all(type(e) is SimEvent for e in events)
    as_tuples = dataclasses.replace(result, events=events, power_steps=steps, snapshots=rows)
    assert result == as_tuples and as_tuples == result and not (result != as_tuples)
    # A result itself is unhashable either way (its outcome holds a dict);
    # every other field hashes alike.
    hashes = {hash((r.report, r.snapshots, r.events, r.power_steps)) for r in (result, as_tuples)}
    assert len(hashes) == 1
    for either in (result, as_tuples):
        with pytest.raises(TypeError):
            hash(either)
