"""Batch and discrete-event timeline execution of the schedulers.

run_batch feeds a whole workload to one scheduler and reports on the
resulting cluster. run_timeline is the timeline loop itself: one function
over one scheduling.ClusterState. Each arrival schedules that single
request into the state, each departure releases its percentages in place
(reading its node and percentages from the request's decision record), and
the resource adaptor deletes nodes that stay empty past a grace period.
Arrivals are merged from the workload sorted once, so the event heap holds
only departures and armed scale checks, and each request is dropped once
it has arrived. Events, power steps and snapshot rows (the state's
per-node arrays on a fixed grid) are kept as parallel lists, read through
ColumnViews that build each item as it is read. Each request's deadline
miss is counted at its arrival, where its fate is known. Total power is
recorded as piecewise-constant steps between events; once the loop ends,
their integral up to the horizon is reported as energy_wh. The final
report reads the state's columns: Node and SimEvent values are built only
for on_event, which gets the state itself as a live read-only
Sequence[Node]. The run's outcome is derived from its decision trace.
Neither function prints or logs: what a run did is in its result, and each
node removal is a SCALE_CHECK event, passed to on_event as it happens.

Event ordering at equal times is departure, then arrival, then snapshot,
then scale-down check, with ties inside a kind broken by ascending
request or node id. The simulation horizon is the time of the last
arrival, departure or executed node removal; snapshots and the energy
integral stop there.
"""

from __future__ import annotations

import heapq
import math
from enum import Enum
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .metrics import Report, build_report
from .model import ConfigError, GptRequest, Node, TupleView, ValidationError, echo, record, trusted, validate_unique_ids
from .model import release_from_node  # noqa: F401  a perfbench/tracer.py seam (test_benchmark_tracer_seams_exist)
from .power import node_power, total_power  # noqa: F401  perfbench/tracer.py seams, likewise
from .profiler import DEFAULT_COEFFICIENTS, ProfilerCoefficients
from .scheduling import (
    ALGORITHMS,
    AllocationOutcome,
    ClusterState,
    DecisionRecord,
    NodeIdSequence,
    SchedulerConfig,
)


class EventKind(str, Enum):
    """Timeline event kinds, in their ordering rank at equal times.

    SCALE_CHECK is internal housekeeping (the adaptor revisiting an empty
    node after the grace period); it sorts after snapshots.
    """

    DEPARTURE = "departure"
    ARRIVAL = "arrival"
    SNAPSHOT = "snapshot"
    SCALE_CHECK = "scale-check"


# Heap ranks, the EventKind order above.
_DEPARTURE, _ARRIVAL, _SNAPSHOT, _SCALE_CHECK = range(4)

# A run whose snapshot grid could hold more points than this is refused
# before it starts: every point writes one row per live node.
MAX_SNAPSHOT_POINTS = 100_000

# The largest finite float: a grace above it cannot be added to a time.
_LARGEST_FLOAT = math.nextafter(math.inf, 0.0)


@record(slots=True)
class SimEvent:
    """One processed timeline event."""

    time_s: float
    kind: EventKind
    request_id: Optional[str] = None
    node_id: Optional[str] = None


_new_event = trusted(SimEvent)  # SimEvent has no checks to skip, only __init__


def _event(cells: Sequence[object]) -> SimEvent:
    time_s, kind, key = cells  # key: a scale check's node id, else a request id or None
    scale_check = kind is EventKind.SCALE_CHECK
    return _new_event(time_s, kind, None if scale_check else key, key if scale_check else None)


@record
class AdaptorPolicy:
    """Scale-down behavior: grace period and a floor on cluster size.

    A node is retired once it has been continuously empty for
    scale_down_grace_s seconds, unless removal would drop the cluster
    below retain_min_nodes. A node whose removal was blocked stays until
    it becomes non-empty and empty again.
    """

    scale_down_grace_s: float = 300.0
    retain_min_nodes: int = 0

    def __post_init__(self) -> None:
        grace, floor = self.scale_down_grace_s, self.retain_min_nodes
        if isinstance(grace, bool) or not isinstance(grace, (int, float)):
            raise ValidationError(f"scale_down_grace_s must be a number, got {echo(grace)}")
        if grace < 0.0:
            raise ValidationError(f"scale_down_grace_s must be >= 0, got {grace!r}")
        if not grace <= _LARGEST_FLOAT:  # NaN, inf, or an int too large for a float
            raise ValidationError(f"scale_down_grace_s must be finite, got {echo(grace)}")
        if isinstance(floor, bool) or not isinstance(floor, int) or floor < 0:
            raise ValidationError(f"retain_min_nodes must be an int >= 0, got {echo(floor)}")


class SnapshotRow(NamedTuple):
    """Per-node utilization and power at one snapshot instant; the tuple is
    the row's snapshots-table cells in column order, built as it is read."""

    time_s: float
    node_id: str
    compute_util: float
    memory_util: float
    storage_util: float
    power_w: float


class ColumnView(TupleView):
    """Parallel lists read as one sequence: item i is make((column_1[i], ...)), built when read."""

    __slots__ = ("make", "columns")

    def __init__(self, make: Callable[[Sequence[object]], object], *columns: List[object]) -> None:
        self.make, self.columns = make, columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):  # type: ignore[no-untyped-def]
        cells = [column[index] for column in self.columns]
        return tuple(map(self.make, zip(*cells))) if isinstance(index, slice) else self.make(cells)

    def __iter__(self) -> Iterator[object]:
        return map(self.make, zip(*self.columns))


@record
class TimelineResult:
    """Everything a timeline run produced.

    power_steps is the piecewise-constant total-power trajectory as
    (time_s, watts) change points; energy_wh in the report integrates it
    over [0, horizon]. events, power_steps and snapshots are read-only
    ColumnViews, equal and hash-equal to the tuples of their items; a slice is a tuple.
    """

    report: Report
    snapshots: Sequence[SnapshotRow]
    outcome: AllocationOutcome
    events: Sequence[SimEvent]
    power_steps: Sequence[Tuple[float, float]]


def _scheduler(algorithm_id: str) -> Callable[..., AllocationOutcome]:
    scheduler = ALGORITHMS.get(algorithm_id)
    if scheduler is None:
        raise ConfigError(f"unknown algorithm {echo(algorithm_id)}; choose from {sorted(ALGORITHMS)}")
    return scheduler


def run_batch(
    workload: Iterable[GptRequest],
    nodes: Union[List[Node], ClusterState],
    algorithm_id: str,
    config: SchedulerConfig,
    *,
    coeffs: ProfilerCoefficients = DEFAULT_COEFFICIENTS,
) -> Tuple[AllocationOutcome, Report]:
    """Run one scheduler over the whole workload, any iterable read once, and report.

    nodes, a ClusterState or a node list, is mutated in place to the
    post-run cluster. Raises ConfigError for an unknown algorithm_id.
    """

    outcome = _scheduler(algorithm_id)(workload, nodes, config, coeffs=coeffs)
    return outcome, build_report(outcome, nodes, config.power_policy)


def run_timeline(
    workload: Iterable[GptRequest],
    initial_nodes: Sequence[Node],
    algorithm_id: str,
    config: SchedulerConfig,
    adaptor: AdaptorPolicy,
    snapshot_interval_s: float,
    *,
    coeffs: ProfilerCoefficients = DEFAULT_COEFFICIENTS,
    on_event: Optional[Callable[[SimEvent, Sequence[Node]], None]] = None,
) -> TimelineResult:
    """Replay a timed workload, any iterable read once, as a discrete-event simulation.

    Every request needs arrival_s and duration_s (validated before the run
    starts); initial nodes must start empty. Arrivals invoke the selected
    scheduler for the single arriving request against the current cluster.
    The returned report carries final-state utilization metrics plus run
    aggregates: deadline_misses and the exact energy integral energy_wh.

    on_event, when given, gets each processed event, snapshots included,
    with the run's cluster state as a live read-only view of the nodes.
    """

    workload = list(workload)  # first: a streamed trace's refusals come before every other check
    scheduler = _scheduler(algorithm_id)
    try:  # as a float, so every grid time is one whatever number type is passed
        interval = math.nan if isinstance(snapshot_interval_s, str) else float(snapshot_interval_s)
    except (TypeError, ValueError, OverflowError):
        interval = math.nan
    if not 0.0 < interval < math.inf:  # 0 * inf is NaN: no grid point would match
        raise ValidationError(f"snapshot_interval_s must be finite and > 0, got {echo(snapshot_interval_s)}")
    validate_unique_ids((r.id for r in workload), "request")
    last_departure = 0.0
    for request in workload:
        if request.arrival_s is None or request.duration_s is None:
            raise ValidationError(f"request {echo(request.id)} lacks arrival_s/duration_s")
        departure = request.arrival_s + request.duration_s
        if not math.isfinite(departure):
            raise ValidationError(f"request {echo(request.id)} departs at a non-finite time")
        last_departure = max(last_departure, departure)
    # No event, so no grid point, comes after the last departure plus
    # the scale-down grace.
    horizon_bound = last_departure + adaptor.scale_down_grace_s
    if workload and horizon_bound / interval >= MAX_SNAPSHOT_POINTS:
        raise ValidationError(
            f"snapshot interval {interval!r} s needs more than "
            f"{MAX_SNAPSHOT_POINTS} grid points up to t={horizon_bound!r} s; "
            "use a larger interval"
        )
    for node in initial_nodes:
        if node.allocated:
            raise ValidationError(
                f"timeline initial node {echo(node.id)} must start empty; "
                "pre-existing allocations have no departure times"
            )

    state = ClusterState(initial_nodes, config.power_policy)
    id_sequence = NodeIdSequence(n.id for n in initial_nodes)
    # Entries (time, rank, request or node id, payload): an arrival's request, a departure's
    # record or a scale check's armed_at (when its node became empty). Ranks differ across
    # kinds, and ids within the others, so only armed_at payloads are ever compared.
    workload.sort(key=lambda r: (r.arrival_s, r.id), reverse=True)  # popped off the end, dropped on arrival
    arrivals = ((r.arrival_s, _ARRIVAL, r.id, r) for r in (workload.pop() for _ in range(len(workload))))
    pending = next(arrivals, None)  # the next arrival's entry, never heaped
    heap: List[Tuple[float, int, str, object]] = []  # departures and scale checks
    trace: List[DecisionRecord] = []
    empty_since: Dict[str, float] = {}
    power = state.power
    event_times, event_kinds, event_keys = events = ([], [], [])  # type: ignore[var-annotated]
    rows: Tuple[List[object], ...] = ([], [], [], [], [], [])
    cells = (state.ids, state.uc, state.um, state.us, power)  # a row's cells after its time
    # After each event, the total of the draws, summed as total_power sums them.
    step_times, step_watts = [0.0], [sum(power, 0.0)]  # a float with no nodes too
    horizon: Optional[float] = None
    deadline_misses = 0
    energy_wh = 0.0

    def emit(time_s: float, kind: EventKind, key: Optional[str]) -> None:
        event_times.append(time_s)
        event_kinds.append(kind)
        event_keys.append(key)
        if on_event is not None:
            on_event(_event((time_s, kind, key)), state)

    def snapshot(time_s: float) -> None:
        order = state.id_order()
        rows[0].extend([time_s] * len(order))
        for column, values in zip(rows[1:], cells):
            column.extend([values[i] for _, i in order])
        emit(time_s, EventKind.SNAPSHOT, None)

    snap_index = 0  # next grid point is snap_index * interval
    while heap or pending:
        time_s, rank, key, payload = heap[0] if heap and (pending is None or heap[0] < pending) else pending
        # A scale check is decided at the heap top, where every earlier
        # mutation has been applied. One that removes nothing (the node was
        # reused or removed since arming, or retain_min_nodes keeps it) is
        # not activity: drop it before the snapshot grid runs ahead of the
        # real horizon.
        if rank == _SCALE_CHECK and (
            empty_since.get(key) != payload or len(state) - 1 < adaptor.retain_min_nodes
        ):
            heapq.heappop(heap)
            continue
        snap_time = snap_index * interval
        if snap_time < time_s or (snap_time == time_s and rank > _SNAPSHOT):
            snapshot(snap_time)
            snap_index += 1
            continue
        if rank == _ARRIVAL:
            pending = next(arrivals, None)
            request: GptRequest = payload
            record = scheduler([request], state, config, coeffs=coeffs, id_sequence=id_sequence).trace[0]
            trace.append(record)
            node_id = record.chosen_node_id
            if node_id is not None:
                empty_since.pop(node_id, None)
                heapq.heappush(heap, (time_s + request.duration_s, _DEPARTURE, key, record))
            # A rejected request with a deadline never completes, so it misses.
            deadline = request.deadline_s
            if deadline is not None and (node_id is None or request.duration_s > deadline):
                deadline_misses += 1
            kind = EventKind.ARRIVAL
        elif rank == _DEPARTURE:
            heapq.heappop(heap)
            node_id = payload.chosen_node_id
            if state.release(node_id, key, payload.pct):
                empty_since[node_id] = time_s
                heapq.heappush(heap, (time_s + adaptor.scale_down_grace_s, _SCALE_CHECK, node_id, time_s))
            kind = EventKind.DEPARTURE
        else:
            heapq.heappop(heap)
            del empty_since[key]
            state.remove(key)
            kind = EventKind.SCALE_CHECK
        horizon = time_s
        watts = sum(power, 0.0)
        if step_watts[-1] != watts:
            step_times.append(time_s)
            step_watts.append(watts)
        emit(time_s, kind, key)

    # Trailing grid points up to the horizon; state no longer changes.
    if horizon is not None:
        while snap_index * interval <= horizon:
            snapshot(snap_index * interval)
            snap_index += 1
        # Each step lasts until the next one starts, the last until the horizon.
        # Added in step order: sum() compensates float sums from Python 3.12.
        watt_seconds = 0.0
        for start, end, watts in zip(step_times, step_times[1:] + [horizon], step_watts):
            watt_seconds += watts * (end - start)
        energy_wh = watt_seconds / 3600.0

    outcome = AllocationOutcome.from_trace(trace)
    report = build_report(
        outcome,
        state,
        config.power_policy,
        deadline_misses=deadline_misses,
        energy_wh=energy_wh,
        require_allocation_targets=False,
    )
    return TimelineResult(
        report=report,
        snapshots=ColumnView(SnapshotRow._make, *rows),
        outcome=outcome,
        events=ColumnView(_event, *events),
        power_steps=ColumnView(tuple, step_times, step_watts),
    )
