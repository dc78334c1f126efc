"""Batch runs and the discrete-event timeline."""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptsched import (
    AdaptorPolicy,
    ConfigError,
    EventKind,
    GeneratorSpec,
    LognormalSpec,
    Node,
    PowerMode,
    PowerPolicy,
    SchedulerConfig,
    SimEvent,
    Threshold,
    ValidationError,
    estimate_demand,
    generate_synthetic,
    run_batch,
    run_timeline,
    write_report,
)
from gptsched import cli, scheduling, simulator
from gptsched.simulator import MAX_SNAPSHOT_POINTS, SnapshotRow

from helpers import node, request, template
from naive_reference import ref_timeline


def _config(threshold: float = 0.8, autoscale: bool = False, **kwargs: object) -> SchedulerConfig:
    return SchedulerConfig(
        threshold=Threshold(threshold),
        autoscale_template=template() if autoscale else None,
        **kwargs,
    )


def test_run_batch_empty_workload() -> None:
    nodes = [node("a")]
    outcome, report = run_batch([], nodes, "max-util", _config())
    assert outcome.allocation == {}
    assert report.request_count == 0 and report.node_count == 1
    assert report.deadline_misses is None and report.energy_wh is None


def test_run_batch_unknown_algorithm() -> None:
    with pytest.raises(ConfigError, match="unknown algorithm"):
        run_batch([], [node("a")], "round-robin", _config())


def test_run_batch_two_node_report() -> None:
    nodes = [node("a", template(), util=(0.5, 0.5, 0.5)), node("b", template(), util=(0.2, 0.2, 0.2))]
    outcome, report = run_batch([request("r1", 20.0, 20.0, 20.0)], nodes, "max-util", _config())
    assert outcome.allocation == {"r1": "a"}
    assert report.mean_compute_utilization == pytest.approx(0.45)
    assert report.utilization_stddev == pytest.approx(0.25)
    # 100 + 100*0.7 plus 100 + 100*0.2.
    assert report.total_power_w == pytest.approx(290.0)
    assert report.per_resource_mean_utilization.memory == pytest.approx(0.45)
    assert report.unallocated_count == 0


def test_run_batch_total_rejection() -> None:
    nodes = [node("a")]
    outcome, report = run_batch([request("r1", 500.0)], nodes, "load-balance", _config())
    assert outcome.unallocated == ("r1",)
    assert report.unallocated_count == 1 and report.request_count == 1


def _timeline(workload, nodes, *, algorithm="max-util", threshold=0.8, autoscale=False,
              grace=300.0, retain=0, interval=50.0, policy=None, on_event=None):
    config = _config(threshold, autoscale, **({"power_policy": policy} if policy else {}))
    return run_timeline(
        workload,
        nodes,
        algorithm,
        config,
        AdaptorPolicy(scale_down_grace_s=grace, retain_min_nodes=retain),
        interval,
        on_event=on_event,
    )


def test_timeline_single_request_full_trace() -> None:
    # One request at 40/20/10% for [0, 100); grace 60 retires the node at
    # 160; snapshots every 50 s; power 140 W while running, 0 W off.
    workload = [request("r1", 40.0, 20.0, 10.0, arrival_s=0.0, duration_s=100.0)]
    result = _timeline(workload, [node("node-1")], grace=60.0, interval=50.0)

    assert result.outcome.allocation == {"r1": "node-1"}
    assert result.snapshots == (
        SnapshotRow(0.0, "node-1", 0.4, 0.2, 0.1, 140.0),
        SnapshotRow(50.0, "node-1", 0.4, 0.2, 0.1, 140.0),
        SnapshotRow(100.0, "node-1", 0.0, 0.0, 0.0, 0.0),
        SnapshotRow(150.0, "node-1", 0.0, 0.0, 0.0, 0.0),
    )
    assert result.events == (
        SimEvent(0.0, EventKind.ARRIVAL, request_id="r1"),
        SimEvent(0.0, EventKind.SNAPSHOT),
        SimEvent(50.0, EventKind.SNAPSHOT),
        SimEvent(100.0, EventKind.DEPARTURE, request_id="r1"),
        SimEvent(100.0, EventKind.SNAPSHOT),
        SimEvent(150.0, EventKind.SNAPSHOT),
        SimEvent(160.0, EventKind.SCALE_CHECK, node_id="node-1"),
    )
    # 140 W for 100 s, then off until the removal at 160.
    assert result.report.energy_wh == 14000.0 / 3600.0
    assert result.power_steps == ((0.0, 0.0), (0.0, 140.0), (100.0, 0.0))
    assert result.report.node_count == 0
    assert result.report.deadline_misses == 0


def test_timeline_node_reuse_stale_check_single_removal() -> None:
    workload = [
        request("r1", 40.0, arrival_s=0.0, duration_s=10.0),
        request("r2", 40.0, arrival_s=20.0, duration_s=10.0),
    ]
    result = _timeline(workload, [node("node-1")], grace=300.0, interval=100.0)
    assert result.outcome.allocation == {"r1": "node-1", "r2": "node-1"}
    assert result.outcome.created_node_ids == ()
    checks = [e for e in result.events if e.kind is EventKind.SCALE_CHECK]
    # The check armed at t=10 went stale on reuse; only the one armed at
    # t=30 fires, at t=330.
    assert checks == [SimEvent(330.0, EventKind.SCALE_CHECK, node_id="node-1")]
    assert [s.time_s for s in result.snapshots] == [0.0, 100.0, 200.0, 300.0]
    assert result.report.energy_wh == 2800.0 / 3600.0


def test_timeline_blocked_check_does_not_extend_horizon() -> None:
    workload = [request("r1", 40.0, arrival_s=0.0, duration_s=10.0)]
    result = _timeline(workload, [node("node-1")], grace=20.0, retain=1, interval=7.0)
    # Horizon is the departure at t=10; the blocked check at t=30 neither
    # appears as an event nor drags snapshots past the horizon.
    assert all(e.kind is not EventKind.SCALE_CHECK for e in result.events)
    assert [s.time_s for s in result.snapshots] == [0.0, 7.0]
    assert result.report.node_count == 1
    assert result.report.energy_wh == 1400.0 / 3600.0


def test_timeline_snapshot_precedes_equal_time_removal() -> None:
    workload = [request("r1", 40.0, arrival_s=0.0, duration_s=10.0)]
    result = _timeline(workload, [node("node-1")], grace=90.0, interval=100.0)
    # The grid point and the removal coincide at t=100: snapshot first.
    assert result.snapshots[-1] == SnapshotRow(100.0, "node-1", 0.0, 0.0, 0.0, 0.0)
    assert result.events[-2:] == (
        SimEvent(100.0, EventKind.SNAPSHOT),
        SimEvent(100.0, EventKind.SCALE_CHECK, node_id="node-1"),
    )


def test_timeline_departure_frees_capacity_for_same_time_arrival() -> None:
    workload = [
        request("r1", 60.0, arrival_s=0.0, duration_s=10.0),
        request("r2", 60.0, arrival_s=10.0, duration_s=5.0),
    ]
    result = _timeline(workload, [node("node-1")], grace=10.0, interval=1000.0)
    assert result.outcome.unallocated == ()
    assert result.outcome.allocation == {"r1": "node-1", "r2": "node-1"}


def test_timeline_same_time_arrivals_ordered_by_id() -> None:
    workload = [
        request("r2", 30.0, arrival_s=5.0, duration_s=10.0),
        request("r1", 30.0, arrival_s=5.0, duration_s=10.0),
    ]
    result = _timeline(workload, [node("node-1")], retain=1, interval=1000.0)
    arrivals = [e.request_id for e in result.events if e.kind is EventKind.ARRIVAL]
    assert arrivals == ["r1", "r2"]
    assert [t.request_id for t in result.outcome.trace] == ["r1", "r2"]


def test_timeline_empty_workload() -> None:
    result = _timeline([], [node("node-1")], interval=10.0)
    assert result.snapshots == () and result.events == ()
    assert result.report.energy_wh == 0.0
    assert result.report.deadline_misses == 0
    assert result.report.node_count == 1
    assert result.power_steps == ((0.0, 0.0),)


def test_timeline_autoscale_ids_not_reused_after_removal() -> None:
    workload = [
        request("r1", 40.0, arrival_s=0.0, duration_s=10.0),
        request("r2", 40.0, arrival_s=100.0, duration_s=10.0),
    ]
    result = _timeline(workload, [], autoscale=True, grace=50.0, interval=1000.0)
    assert result.outcome.created_node_ids == ("auto-1", "auto-2")
    assert result.outcome.allocation == {"r1": "auto-1", "r2": "auto-2"}
    checks = [e for e in result.events if e.kind is EventKind.SCALE_CHECK]
    assert [(e.time_s, e.node_id) for e in checks] == [(60.0, "auto-1"), (160.0, "auto-2")]
    assert result.report.created_node_count == 2
    assert result.report.node_count == 0


def test_timeline_deadline_misses() -> None:
    workload = [
        request("r1", 10.0, arrival_s=0.0, duration_s=100.0, deadline_s=50.0),
        request("r2", 10.0, arrival_s=0.0, duration_s=10.0, deadline_s=50.0),
        request("r3", 500.0, arrival_s=0.0, duration_s=5.0, deadline_s=99.0),
        request("r4", 500.0, arrival_s=0.0, duration_s=5.0),
    ]
    result = _timeline(workload, [node("node-1")], retain=1, interval=1000.0)
    assert set(result.outcome.unallocated) == {"r3", "r4"}
    # r1 runs past its deadline; r3 was rejected while holding one.
    assert result.report.deadline_misses == 2


def test_timeline_deadline_is_a_relative_budget() -> None:
    # Completes at t=105, after deadline_s=50 as an absolute time, but the
    # budget counts from arrival: 5 s of duration is within 50 s.
    workload = [request("r1", 10.0, arrival_s=100.0, duration_s=5.0, deadline_s=50.0)]
    result = _timeline(workload, [node("node-1")], retain=1, interval=1000.0)
    assert result.report.deadline_misses == 0


def test_timeline_idle_power_when_not_off_when_empty() -> None:
    workload = [request("r1", 50.0, arrival_s=10.0, duration_s=10.0)]
    policy = PowerPolicy(mode=PowerMode.INCREMENTAL, off_when_empty=False)
    result = _timeline(workload, [node("node-1")], retain=1, interval=5.0, policy=policy)
    assert result.power_steps == ((0.0, 100.0), (10.0, 150.0), (20.0, 100.0))
    assert result.report.energy_wh == 2500.0 / 3600.0
    assert [(s.time_s, s.power_w) for s in result.snapshots] == [
        (0.0, 100.0), (5.0, 100.0), (10.0, 150.0), (15.0, 150.0), (20.0, 100.0)
    ]


def test_timeline_validation() -> None:
    good = request("r1", 10.0, arrival_s=0.0, duration_s=1.0)
    with pytest.raises(ValidationError, match="lacks arrival_s/duration_s"):
        _timeline([request("r1", 10.0, arrival_s=0.0)], [node("node-1")])
    with pytest.raises(ValidationError, match="must start empty"):
        _timeline([good], [node("node-1", template(), util=(0.1, 0.0, 0.0))])
    with pytest.raises(ValidationError, match="snapshot_interval_s"):
        _timeline([good], [node("node-1")], interval=0.0)
    with pytest.raises(ValidationError, match="duplicate"):
        _timeline([good, good], [node("node-1")])
    with pytest.raises(ConfigError, match="unknown algorithm"):
        _timeline([good], [node("node-1")], algorithm="fifo")
    with pytest.raises(ValidationError):
        AdaptorPolicy(scale_down_grace_s=-1.0)
    with pytest.raises(ValidationError):
        AdaptorPolicy(retain_min_nodes=-1)


def test_timeline_int_snapshot_interval_gives_float_grid_times(tmp_path: Path) -> None:
    # The CSV and JSON writers write a float's cell the same way, an int's not.
    workload = [request("r1", 10.0, arrival_s=1e9, duration_s=1.0)]
    result = _timeline(workload, [node("node-1")], interval=10**9)
    assert [(s.time_s, type(s.time_s)) for s in result.snapshots] == [(0.0, float), (1e9, float)]
    write_report(result.snapshots, "csv", tmp_path / "snapshots.csv")
    write_report(result.snapshots, "json", tmp_path / "snapshots.json")
    csv_times = [line.split(",")[0] for line in (tmp_path / "snapshots.csv").read_text().splitlines()[1:]]
    json_times = re.findall(r'"time_s":([^,]+),', (tmp_path / "snapshots.json").read_text())
    assert csv_times == json_times == ["0", "1e+09"]


@pytest.mark.parametrize("interval", [10**400, "60", None])
def test_timeline_refuses_a_snapshot_interval_that_is_no_float(interval) -> None:
    good = request("r1", 10.0, arrival_s=0.0, duration_s=1.0)
    with pytest.raises(ValidationError, match="snapshot_interval_s must be finite and > 0"):
        _timeline([good], [node("node-1")], interval=interval)


def _generated_timed_workload(count: int = 80):
    spec = GeneratorSpec(
        request_count=count,
        seed=7,
        arrival_rate_per_s=1.0,
        duration_dist=LognormalSpec(2.5, 0.8),
    )
    return generate_synthetic(spec)


def test_timeline_conservation_and_threshold_at_every_event() -> None:
    workload = _generated_timed_workload()
    demands = {r.id: estimate_demand(r) for r in workload}
    tpl = template(compute=1000.0, memory=512.0, storage=2000.0, p_idle=100.0, p_max=400.0)
    config = SchedulerConfig(threshold=Threshold(0.8), autoscale_template=tpl)
    checked = 0

    def on_event(event, nodes) -> None:
        nonlocal checked
        checked += 1
        for n in nodes:
            expect = [0.0, 0.0, 0.0]
            for rid in n.allocated:
                d = demands[rid]
                expect[0] += d.compute / n.capacity.compute
                expect[1] += d.memory_gib / n.capacity.memory_gib
                expect[2] += d.storage_gib / n.capacity.storage_gib
            got = n.utilization.as_tuple()
            for axis in range(3):
                assert abs(got[axis] - expect[axis]) <= 1e-9
                assert got[axis] <= 0.8 + 1e-9

    run_timeline(
        workload,
        [node("node-1", tpl), node("node-2", tpl)],
        "max-util",
        config,
        AdaptorPolicy(scale_down_grace_s=30.0, retain_min_nodes=0),
        10.0,
        on_event=on_event,
    )
    assert checked >= 2 * len(workload)


def test_timeline_replay_is_deterministic() -> None:
    workload = _generated_timed_workload(40)
    results = []
    for _ in range(2):
        results.append(_timeline(workload, [node("node-1"), node("node-2")],
                                 autoscale=True, grace=25.0, interval=15.0))
    assert results[0] == results[1]


def test_timeline_power_steps_deduplicate_equal_watts() -> None:
    result = _timeline(
        [request("r1", 40.0, arrival_s=0.0, duration_s=10.0)],
        [node("node-1")],
        grace=5.0,
        interval=100.0,
    )
    watts = [w for _, w in result.power_steps]
    assert all(a != b for a, b in zip(watts, watts[1:]))


def test_timeline_rejects_departure_time_overflow() -> None:
    # 1e308 + 1e308 overflows to inf; the snapshot grid would never reach it.
    huge = request("r1", 10.0, arrival_s=1e308, duration_s=1e308)
    with pytest.raises(ValidationError, match="non-finite"):
        _timeline([huge], [node("node-1")])


# Autoscale from two nodes with a short grace, or a fixed three-node cluster
# that may shrink to two, idle nodes drawing power and absolute-after deltas.
_REPLAY_SCENARIOS = {
    "autoscale": dict(nodes=2, autoscale=True, grace=5.0, retain=0, interval=7.0, policy=None),
    "retain": dict(
        nodes=3, autoscale=False, grace=0.0, retain=2, interval=10.0,
        policy=PowerPolicy(mode=PowerMode.ABSOLUTE_AFTER, off_when_empty=False),
    ),
}


@pytest.mark.parametrize("scenario", sorted(_REPLAY_SCENARIOS))
@pytest.mark.parametrize("resort", [False, True])
@pytest.mark.parametrize("algorithm", ["max-util", "load-balance", "power"])
def test_timeline_matches_naive_replay(algorithm, resort, scenario) -> None:
    spec = _REPLAY_SCENARIOS[scenario]
    workload = [
        dataclasses.replace(r, deadline_s=20.0) if i % 3 == 0 else r
        for i, r in enumerate(_generated_timed_workload(60))
    ]
    nodes = [node(f"node-{i + 1}") for i in range(spec["nodes"])]
    policy = spec["policy"] or PowerPolicy()
    config = SchedulerConfig(
        threshold=Threshold(0.8),
        autoscale_template=template() if spec["autoscale"] else None,
        resort_after_each_allocation=resort,
        power_policy=policy,
    )
    adaptor = AdaptorPolicy(scale_down_grace_s=spec["grace"], retain_min_nodes=spec["retain"])
    seen = []

    def on_event(event, view) -> None:
        listed = tuple(view)
        assert len(view) == len(listed)
        assert not listed or (view[0], view[-1]) == (listed[0], listed[-1])
        seen.append(listed)

    result = run_timeline(workload, nodes, algorithm, config, adaptor, spec["interval"], on_event=on_event)
    expected = ref_timeline(workload, nodes, algorithm, config, adaptor, spec["interval"])

    assert result.events == expected["events"]
    assert result.snapshots == expected["snapshots"]
    assert result.power_steps == expected["power_steps"]
    assert result.report == expected["report"]
    assert result.report.energy_wh == expected["report"].energy_wh
    assert seen == expected["nodes_at_event"]
    assert result.report.unallocated_count > 0
    assert any(e.kind is EventKind.SCALE_CHECK for e in result.events)


def test_timeline_builds_no_node_without_on_event(monkeypatch) -> None:
    workload = _generated_timed_workload(60)
    nodes = [node("node-1"), node("node-2")]
    built = 0
    post_init = Node.__post_init__

    def counting(self) -> None:
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(Node, "__post_init__", counting)
    result = _timeline(workload, nodes, autoscale=True, grace=5.0, retain=1, interval=20.0)
    kinds = {e.kind for e in result.events}
    assert {EventKind.ARRIVAL, EventKind.DEPARTURE, EventKind.SCALE_CHECK} <= kinds
    assert result.snapshots and result.report.node_count
    assert built == 0


def _replay_inputs(scenario: str, resort: bool):
    spec = _REPLAY_SCENARIOS[scenario]
    workload = [
        dataclasses.replace(r, deadline_s=20.0) if i % 3 == 0 else r
        for i, r in enumerate(_generated_timed_workload(60))
    ]
    nodes = [node(f"node-{i + 1}") for i in range(spec["nodes"])]
    config = SchedulerConfig(
        threshold=Threshold(0.8),
        autoscale_template=template() if spec["autoscale"] else None,
        resort_after_each_allocation=resort,
        power_policy=spec["policy"] or PowerPolicy(),
    )
    adaptor = AdaptorPolicy(scale_down_grace_s=spec["grace"], retain_min_nodes=spec["retain"])
    return workload, nodes, config, adaptor, spec["interval"]


@pytest.mark.parametrize("scenario", sorted(_REPLAY_SCENARIOS))
@pytest.mark.parametrize("resort", [False, True])
@pytest.mark.parametrize("algorithm", ["max-util", "load-balance", "power"])
def test_timeline_outcome_matches_naive_replay(algorithm, resort, scenario) -> None:
    workload, nodes, config, adaptor, interval = _replay_inputs(scenario, resort)
    result = run_timeline(workload, nodes, algorithm, config, adaptor, interval)
    expected = ref_timeline(workload, nodes, algorithm, config, adaptor, interval)["outcome"]

    assert result.outcome == expected
    assert list(result.outcome.allocation.items()) == list(expected.allocation.items())
    assert result.outcome.created_node_ids or not config.autoscale_template


@pytest.mark.parametrize("algorithm", ["max-util", "load-balance", "power"])
def test_timeline_calls_the_scheduler_once_per_arrival(monkeypatch, algorithm) -> None:
    # The traced benchmark counts scheduler calls through ALGORITHMS and
    # requires one call, with one decision record, per arrival.
    schedule = scheduling.ALGORITHMS[algorithm]
    calls = []

    def counting(queue, *args, **kwargs):
        outcome = schedule(queue, *args, **kwargs)
        calls.append((len(queue), len(outcome.trace)))
        return outcome

    monkeypatch.setitem(scheduling.ALGORITHMS, algorithm, counting)
    workload = _generated_timed_workload(60)
    result = _timeline(workload, [node("node-1")], algorithm=algorithm, autoscale=True, grace=5.0)
    assert calls == [(1, 1)] * len(workload)
    assert len(result.outcome.trace) == len(workload)


def test_benchmark_tracer_seams_exist() -> None:
    # perfbench/tracer.py wraps attributes of these modules by name; a
    # rename would otherwise fail only the traced benchmark run.
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text()
    modules = {"cli": cli, "scheduling": scheduling, "simulator": simulator}
    seams = re.findall(r'\((cli|scheduling|simulator), "(\w+)"', source)
    assert len(seams) >= 11
    for module, name in seams:
        assert callable(getattr(modules[module], name, None)), f"{module}.{name}"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 20),
            st.integers(1, 8),
            st.sampled_from([0.0, 10.0, 30.0, 30.0, 50.0, 60.0, 90.0]),
        ),
        min_size=1,
        max_size=16,
    ),
    st.integers(0, 3),
    st.sampled_from(["max-util", "load-balance", "power"]),
    st.booleans(),
    st.sampled_from([0.0, 2.0, 5.0]),
    st.integers(0, 2),
    st.sampled_from([PowerPolicy(), PowerPolicy(mode=PowerMode.ABSOLUTE_AFTER, off_when_empty=False)]),
)
def test_timeline_matches_naive_replay_on_random_workloads(
    items, node_count, algorithm, resort, grace, retain, policy
) -> None:
    # Integer times give same-time arrivals, departures and scale checks;
    # a short grace retires nodes that autoscale later re-creates.
    workload = [
        request(f"r{k:02d}", c, c / 2, c / 4, arrival_s=float(a), duration_s=float(d))
        for k, (a, d, c) in enumerate(items)
    ]
    nodes = [node(f"node-{i + 1}") for i in range(node_count)]
    config = SchedulerConfig(
        threshold=Threshold(0.8),
        autoscale_template=template(),
        resort_after_each_allocation=resort,
        power_policy=policy,
    )
    adaptor = AdaptorPolicy(scale_down_grace_s=grace, retain_min_nodes=retain)
    seen = []
    result = run_timeline(
        workload, nodes, algorithm, config, adaptor, 1.5, on_event=lambda e, view: seen.append(tuple(view))
    )
    expected = ref_timeline(workload, nodes, algorithm, config, adaptor, 1.5)

    assert result.events == expected["events"]
    assert result.snapshots == expected["snapshots"]
    assert result.power_steps == expected["power_steps"]
    assert result.outcome == expected["outcome"]
    assert result.report == expected["report"]
    assert seen == expected["nodes_at_event"]


class _CountedId(str):
    """A node id that counts its comparisons, so a test can tell a sort or
    a bisect over node ids from a lookup."""

    comparisons = 0

    def _count(compare):  # type: ignore[no-untyped-def]
        def counted(self, other):  # type: ignore[no-untyped-def]
            _CountedId.comparisons += 1
            return compare(self, other)

        return counted

    __lt__ = _count(str.__lt__)
    __le__ = _count(str.__le__)
    __gt__ = _count(str.__gt__)
    __ge__ = _count(str.__ge__)
    __eq__ = _count(str.__eq__)
    __ne__ = _count(str.__ne__)
    __hash__ = str.__hash__
    del _count


@pytest.mark.parametrize("resort", [False, True])
@pytest.mark.parametrize("algorithm", ["max-util", "load-balance", "power"])
def test_timeline_arrival_does_not_sort_or_reserve_every_node(monkeypatch, algorithm, resort) -> None:
    # M arrivals on N >> M nodes: per-arrival work may grow with log N and
    # with the scan, but must not re-sort or re-reserve all N nodes.
    n, m = 3000, 60
    nodes = [Node(id=_CountedId(f"n{i:04d}"), template=template()) for i in range(n)]
    workload = [request(f"r{k:03d}", 10.0, arrival_s=float(k), duration_s=30.0) for k in range(m)]
    monkeypatch.setattr(_CountedId, "comparisons", 0)
    config = _config(resort_after_each_allocation=resort)
    result = run_timeline(workload, nodes, algorithm, config, AdaptorPolicy(scale_down_grace_s=1e6), 1e6)
    assert len(result.outcome.allocation) == m
    assert _CountedId.comparisons <= 6 * n + 16 * m * math.ceil(math.log2(n))


def _stop_after(events: int):
    # on_event guard: a run that was not refused fails after a few events
    # instead of building millions of snapshot rows.
    seen = 0

    def on_event(event, view) -> None:
        nonlocal seen
        seen += 1
        assert seen <= events, "oversized snapshot grid was not refused"

    return on_event


def test_timeline_refuses_an_oversized_snapshot_grid() -> None:
    # The last departure is at t=10 and the grace adds 5: at 1e-6 s the
    # grid would have 15 million points.
    workload = [request("r1", 10.0, arrival_s=0.0, duration_s=10.0)]
    limit = 15.0 / MAX_SNAPSHOT_POINTS
    for interval in (1e-6, limit):
        with pytest.raises(ValidationError, match="grid points"):
            _timeline(workload, [node("node-1")], grace=5.0, interval=interval, on_event=_stop_after(100))
    result = _timeline(workload, [node("node-1")], grace=5.0, interval=limit * 2)
    assert len(result.snapshots) <= MAX_SNAPSHOT_POINTS
    # An empty workload has no horizon and no grid.
    assert _timeline([], [node("node-1")], interval=1e-300).snapshots == ()


def test_on_event_sees_exactly_the_result_events_and_the_live_state() -> None:
    workload = _generated_timed_workload(60)
    seen, views, sizes, snapshot_rows = [], [], [], []

    def on_event(event, view) -> None:
        seen.append(event)
        views.append(view)
        sizes.append(len(view))
        if event.kind is EventKind.SNAPSHOT:
            for n in sorted(view, key=lambda n: n.id):
                snapshot_rows.append(
                    SnapshotRow(event.time_s, n.id, *n.utilization.as_tuple(), simulator.node_power(n))
                )

    result = _timeline(workload, [node("node-1")], autoscale=True, grace=5.0, interval=10.0, on_event=on_event)
    assert tuple(seen) == result.events
    assert {event.kind for event in seen} == set(EventKind)
    # One live view, the run's cluster state, read as it stands at each call.
    assert isinstance(views[0], scheduling.ClusterState) and all(view is views[0] for view in views)
    assert len(set(sizes)) > 1
    assert tuple(snapshot_rows) == result.snapshots



@pytest.mark.parametrize("initial", [[], ["node-1"]], ids=["starts-empty", "scales-to-zero"])
def test_every_power_step_is_a_float_watts(initial) -> None:
    # An empty cluster draws 0.0 W, not the int 0 that sum([]) gives: at the
    # start with no node, and after the last node is scaled down (an empty
    # node that stays on draws its idle power until then).
    workload = [request(f"r{k}", 30.0, arrival_s=float(k), duration_s=1.5) for k in range(4)]
    policy = PowerPolicy(off_when_empty=False)
    result = _timeline(workload, [node(n) for n in initial], autoscale=True, grace=0.0, policy=policy)
    assert result.power_steps[0][1] == 100.0 * len(initial) and result.power_steps[-1][1] == 0.0
    assert all(type(watts) is float for _, watts in result.power_steps)
