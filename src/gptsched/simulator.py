"""Batch and discrete-event timeline execution of the schedulers.

run_batch feeds a whole workload to one scheduler and reports on the
resulting cluster. run_timeline replays a timed workload event by event:
each arrival schedules that single request against the current cluster
state, each departure releases its percentages, a resource adaptor retires
nodes that stay empty past a grace period, and snapshots record per-node
utilization and power on a fixed grid. Total power is integrated exactly
over the piecewise-constant segments between events and reported as
energy_wh.

A timeline run keeps one scheduling.ClusterState throughout: arrivals
place into it, departures release in place, scale-down deletes from it,
and total power and snapshot rows read its per-node arrays. Node values
are built only for the final report and for on_event, which gets the
state itself as a live read-only Sequence[Node]. A departure reads its
node and percentages from the request's decision record, and the run's
outcome is derived from the decision trace.

Event ordering at equal times is departure, then arrival, then snapshot,
then scale-down check, with ties inside a kind broken by ascending
request or node id. The simulation horizon is the time of the last
arrival, departure or executed node removal; snapshots and the energy
integral stop there.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .metrics import Report, build_report
from .model import ConfigError, GptRequest, Node, ValidationError, trusted, validate_unique_ids
from .model import release_from_node  # noqa: F401  re-exported; the timeline uses ClusterState
from .power import node_power, total_power  # noqa: F401  re-exported, likewise
from .profiler import DEFAULT_COEFFICIENTS, ProfilerCoefficients
from .scheduling import (
    ALGORITHMS,
    AllocationOutcome,
    ClusterState,
    DecisionRecord,
    NodeIdSequence,
    SchedulerConfig,
)

logger = logging.getLogger(__name__)


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


@dataclass(frozen=True, slots=True)
class SimEvent:
    """One processed timeline event."""

    time_s: float
    kind: EventKind
    request_id: Optional[str] = None
    node_id: Optional[str] = None


_new_event = trusted(SimEvent)  # SimEvent has no checks to skip, only __init__


@dataclass(frozen=True)
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
        if not self.scale_down_grace_s >= 0.0:
            raise ValidationError(f"scale_down_grace_s must be >= 0, got {self.scale_down_grace_s!r}")
        if not isinstance(self.retain_min_nodes, int) or self.retain_min_nodes < 0:
            raise ValidationError(f"retain_min_nodes must be an int >= 0, got {self.retain_min_nodes!r}")


@dataclass(frozen=True)
class SnapshotRow:
    """Per-node utilization and power at one snapshot instant."""

    time_s: float
    node_id: str
    compute_util: float
    memory_util: float
    storage_util: float
    power_w: float


@dataclass(frozen=True)
class TimelineResult:
    """Everything a timeline run produced.

    power_steps is the piecewise-constant total-power trajectory as
    (time_s, watts) change points; energy_wh in the report integrates it
    over [0, horizon].
    """

    report: Report
    snapshots: Tuple[SnapshotRow, ...]
    outcome: AllocationOutcome
    events: Tuple[SimEvent, ...]
    power_steps: Tuple[Tuple[float, float], ...]


def _scheduler(algorithm_id: str) -> Callable[..., AllocationOutcome]:
    scheduler = ALGORITHMS.get(algorithm_id)
    if scheduler is None:
        raise ConfigError(f"unknown algorithm {algorithm_id!r}; choose from {sorted(ALGORITHMS)}")
    return scheduler


def run_batch(
    workload: Sequence[GptRequest],
    nodes: List[Node],
    algorithm_id: str,
    config: SchedulerConfig,
    *,
    coeffs: ProfilerCoefficients = DEFAULT_COEFFICIENTS,
) -> Tuple[AllocationOutcome, Report]:
    """Run one scheduler over the whole workload and report.

    nodes is mutated in place to the post-run cluster state. Raises
    ConfigError for an unknown algorithm_id.
    """

    outcome = _scheduler(algorithm_id)(workload, nodes, config, coeffs=coeffs)
    report = build_report(outcome, nodes, config.power_policy)
    logger.info(
        "batch %s: %d requests, %d unallocated, %d nodes",
        algorithm_id,
        report.request_count,
        report.unallocated_count,
        report.node_count,
    )
    return outcome, report


def _deadline_misses(workload: Sequence[GptRequest], unallocated: Sequence[str]) -> int:
    """Allocated requests miss when duration exceeds deadline; rejected
    requests with a deadline never complete and always miss."""

    rejected = set(unallocated)
    misses = 0
    for request in workload:
        if request.deadline_s is None:
            continue
        if request.id in rejected or request.duration_s > request.deadline_s:
            misses += 1
    return misses


class _Timeline:
    """Mutable state of one timeline run."""

    def __init__(
        self,
        workload: Sequence[GptRequest],
        nodes: Sequence[Node],
        algorithm_id: str,
        config: SchedulerConfig,
        adaptor: AdaptorPolicy,
        snapshot_interval_s: float,
        coeffs: ProfilerCoefficients,
        on_event: Optional[Callable[[SimEvent, Sequence[Node]], None]],
    ) -> None:
        self.scheduler = _scheduler(algorithm_id)
        if not 0.0 < snapshot_interval_s < math.inf:  # 0 * inf is NaN: no grid point would match
            raise ValidationError(f"snapshot_interval_s must be finite and > 0, got {snapshot_interval_s!r}")
        validate_unique_ids((r.id for r in workload), "request")
        last_departure = 0.0
        for request in workload:
            if request.arrival_s is None or request.duration_s is None:
                raise ValidationError(f"request {request.id!r} lacks arrival_s/duration_s")
            departure = request.arrival_s + request.duration_s
            if not math.isfinite(departure):
                raise ValidationError(f"request {request.id!r} departs at a non-finite time")
            last_departure = max(last_departure, departure)
        # No event, so no grid point, comes after the last departure plus
        # the scale-down grace.
        horizon_bound = last_departure + adaptor.scale_down_grace_s
        if workload and horizon_bound / snapshot_interval_s >= MAX_SNAPSHOT_POINTS:
            raise ValidationError(
                f"snapshot interval {snapshot_interval_s!r} s needs more than "
                f"{MAX_SNAPSHOT_POINTS} grid points up to t={horizon_bound!r} s; "
                "use a larger interval"
            )
        for node in nodes:
            if node.allocated:
                raise ValidationError(
                    f"timeline initial node {node.id!r} must start empty; "
                    "pre-existing allocations have no departure times"
                )
        self.requests = {r.id: r for r in workload}
        self.state = ClusterState(nodes, config.power_policy)
        self.config = config
        self.adaptor = adaptor
        self.interval = snapshot_interval_s
        self.coeffs = coeffs
        self.on_event = on_event
        self.id_sequence = NodeIdSequence(n.id for n in nodes)

        self.trace: List[DecisionRecord] = []
        # The decision record of each placed request that has not departed.
        self.live: Dict[str, DecisionRecord] = {}
        self.empty_since: Dict[str, float] = {}
        self.snapshots: List[SnapshotRow] = []
        self.events: List[SimEvent] = []
        self.horizon: Optional[float] = None
        self.power_steps: List[Tuple[float, float]] = []

        # Heap entries: (time, rank, request or node id, armed_at). armed_at
        # is when a scale check's node became empty, 0.0 for other kinds.
        self.heap: List[Tuple[float, int, str, float]] = [
            (r.arrival_s, _ARRIVAL, r.id, 0.0) for r in workload
        ]
        heapq.heapify(self.heap)

    def _arrive(self, time_s: float, request_id: str) -> SimEvent:
        request = self.requests[request_id]
        outcome = self.scheduler(
            [request], self.state, self.config, coeffs=self.coeffs, id_sequence=self.id_sequence
        )
        record = outcome.trace[0]
        self.trace.append(record)
        node_id = record.chosen_node_id
        if node_id is not None:
            self.live[request_id] = record
            self.empty_since.pop(node_id, None)
            heapq.heappush(self.heap, (time_s + request.duration_s, _DEPARTURE, request_id, 0.0))
        return _new_event(time_s, EventKind.ARRIVAL, request_id, None)

    def _depart(self, time_s: float, request_id: str) -> SimEvent:
        record = self.live.pop(request_id)
        node_id = record.chosen_node_id
        if self.state.release(node_id, request_id, record.pct):
            self.empty_since[node_id] = time_s
            heapq.heappush(
                self.heap, (time_s + self.adaptor.scale_down_grace_s, _SCALE_CHECK, node_id, time_s)
            )
        return _new_event(time_s, EventKind.DEPARTURE, request_id, None)

    def _scale_check_effective(self, node_id: str, armed_at: float) -> bool:
        """Whether a due scale check will actually remove its node.

        Decidable as soon as the check reaches the heap top: every earlier
        mutation has been applied by then. Stale when the node was reused
        or already removed since arming; blocked by retain_min_nodes.
        """

        if self.empty_since.get(node_id) != armed_at:
            return False
        if len(self.state) - 1 < self.adaptor.retain_min_nodes:
            logger.debug("scale-down of %s blocked by retain_min_nodes", node_id)
            return False
        return True

    def _scale_down(self, time_s: float, node_id: str) -> SimEvent:
        del self.empty_since[node_id]
        self.state.remove(node_id)
        logger.info("scaled down node %s at t=%.3f", node_id, time_s)
        return _new_event(time_s, EventKind.SCALE_CHECK, None, node_id)

    def _snapshot(self, time_s: float) -> None:
        state = self.state
        for node_id, i in state.id_order():
            self.snapshots.append(SnapshotRow(time_s, node_id, state.uc[i], state.um[i], state.us[i], state.power[i]))
        event = _new_event(time_s, EventKind.SNAPSHOT, None, None)
        self.events.append(event)
        if self.on_event is not None:
            self.on_event(event, state)

    def run(self) -> TimelineResult:
        heap, interval, state, steps = self.heap, self.interval, self.state, self.power_steps
        append_event, on_event = self.events.append, self.on_event
        # After each event, the total of the draws, summed as total_power sums them.
        steps.append((0.0, sum(state.power)))
        snap_index = 0  # next grid point is snap_index * interval

        while heap:
            time_s, rank, key, armed_at = heap[0]
            if rank == _SCALE_CHECK and not self._scale_check_effective(key, armed_at):
                # A no-op check is not activity: drop it before the
                # snapshot grid runs ahead of the real horizon.
                heapq.heappop(heap)
                continue
            snap_time = snap_index * interval
            if snap_time < time_s or (snap_time == time_s and rank > _SNAPSHOT):
                self._snapshot(snap_time)
                snap_index += 1
                continue
            heapq.heappop(heap)
            if rank == _ARRIVAL:
                event = self._arrive(time_s, key)
            elif rank == _DEPARTURE:
                event = self._depart(time_s, key)
            else:
                event = self._scale_down(time_s, key)
            self.horizon = time_s
            watts = sum(state.power)
            if steps[-1][1] != watts:
                steps.append((time_s, watts))
            append_event(event)
            if on_event is not None:
                on_event(event, state)

        # Trailing grid points up to the horizon; state no longer changes.
        if self.horizon is not None:
            while snap_index * self.interval <= self.horizon:
                self._snapshot(snap_index * self.interval)
                snap_index += 1

        outcome = AllocationOutcome.from_trace(self.trace)
        report = build_report(
            outcome,
            list(self.state),
            self.config.power_policy,
            deadline_misses=_deadline_misses(list(self.requests.values()), outcome.unallocated),
            energy_wh=self._integrate_energy(),
            require_allocation_targets=False,
        )
        return TimelineResult(
            report=report,
            snapshots=tuple(self.snapshots),
            outcome=outcome,
            events=tuple(self.events),
            power_steps=tuple(self.power_steps),
        )

    def _integrate_energy(self) -> float:
        horizon, steps = self.horizon, self.power_steps
        if horizon is None or not steps:
            return 0.0
        watt_seconds = 0.0
        # Each step lasts until the next one starts, the last until the horizon.
        ends = [start for start, _ in steps[1:]] + [horizon]
        for (start, watts), end in zip(steps, ends):
            if start >= horizon:
                break
            watt_seconds += watts * (min(end, horizon) - start)
        return watt_seconds / 3600.0


def run_timeline(
    workload: Sequence[GptRequest],
    initial_nodes: Sequence[Node],
    algorithm_id: str,
    config: SchedulerConfig,
    adaptor: AdaptorPolicy,
    snapshot_interval_s: float,
    *,
    coeffs: ProfilerCoefficients = DEFAULT_COEFFICIENTS,
    on_event: Optional[Callable[[SimEvent, Sequence[Node]], None]] = None,
) -> TimelineResult:
    """Replay a timed workload as a discrete-event simulation.

    Every request needs arrival_s and duration_s (validated before the run
    starts); initial nodes must start empty. Arrivals invoke the selected
    scheduler for the single arriving request against the current cluster.
    The returned report carries final-state utilization metrics plus run
    aggregates: deadline_misses and the exact energy integral energy_wh.

    on_event, when given, is called after each processed event with the
    event and the current node list (read-only view for callers).
    """

    sim = _Timeline(
        workload, initial_nodes, algorithm_id, config, adaptor, snapshot_interval_s, coeffs, on_event
    )
    return sim.run()
