"""Naive reference implementations of the three allocation heuristics.

These transcribe the published pseudocode line by line with the documented
determinism pins (stable sorts, ascending-id tie breaks, first-fit scan,
strict-less-than power minimum) and make no attempt to be fast or to share
code with the production schedulers in gptsched.scheduling. They exist so
tests can compare the optimized implementations against an independently
written oracle on randomized instances.

State is kept in plain dicts and lists. Inputs are the package's value
types; outputs are plain dicts:

    {"allocation": {request_id: node_id},
     "unallocated": [request_id, ...],
     "created": [node_id, ...],
     "nodes": [{"id": ..., "util": [c, m, s], "allocated": set()}, ...]}

ref_first_fit_records transcribes the sort-once first fit once more and
returns its per-request decision records, scanned ids included.

ref_timeline is the reference for the timeline simulator: it replays a
timed workload on a plain list of Node values through the public
list-based schedulers and value functions, and returns the package's own
result types so tests can compare with ==.

ref_canonical_json is the reference for reportio.canonical_json: the
straightforward recursive encoder with one json.dumps call per string.

ref_resource_vector, ref_utilization_vector and ref_request_fields apply
the value rules of ResourceVector, UtilizationVector and GptRequest with a
full check of every field, and ref_read_number and ref_read_int those of
the trace parser's number readers; each returns the values the type or
reader keeps, or raises what it raises. ref_trace_record composes them
into the trace parser's rules for a record without a demand.
"""

from __future__ import annotations

import heapq
import json
import math
from typing import Dict, List, Optional, Sequence

from gptsched.metrics import build_report
from gptsched.model import GptRequest, Node, NodeTemplate, TaskKind, ValidationError, release_from_node
from gptsched.power import PowerMode, PowerPolicy, node_power, total_power
from gptsched.profiler import ProfilerCoefficients, estimate_demand
from gptsched.reportio import format_float
from gptsched.scheduling import ALGORITHMS, AllocationOutcome, NodeIdSequence, SchedulerConfig
from gptsched.simulator import AdaptorPolicy, EventKind, SimEvent, SnapshotRow
from gptsched.workload import TraceParseError

EPS = 1e-9


def _node_state(node: Node) -> dict:
    return {
        "id": node.id,
        "cap": [node.capacity.compute, node.capacity.memory_gib, node.capacity.storage_gib],
        "util": [node.utilization.compute, node.utilization.memory, node.utilization.storage],
        "allocated": set(node.allocated),
        "p_idle": node.template.p_idle_w,
        "p_max": node.template.p_max_w,
    }


def _template_state(template: NodeTemplate, node_id: str) -> dict:
    cap = template.capacity
    return {
        "id": node_id,
        "cap": [cap.compute, cap.memory_gib, cap.storage_gib],
        "util": [0.0, 0.0, 0.0],
        "allocated": set(),
        "p_idle": template.p_idle_w,
        "p_max": template.p_max_w,
    }


def _demands(
    requests: Sequence[GptRequest], coeffs: ProfilerCoefficients
) -> Dict[str, List[float]]:
    out = {}
    for request in requests:
        d = estimate_demand(request, coeffs)
        out[request.id] = [d.compute, d.memory_gib, d.storage_gib]
    return out


def _sorted_requests(
    requests: Sequence[GptRequest], demands: Dict[str, List[float]]
) -> List[GptRequest]:
    # Descending compute demand, ties broken by ascending request id.
    return sorted(requests, key=lambda r: (-demands[r.id][0], r.id))


def _percentages(demand: List[float], node: dict) -> List[float]:
    return [demand[axis] / node["cap"][axis] for axis in range(3)]


def _fits(node: dict, pct: List[float], limit: float) -> bool:
    return all(node["util"][axis] + pct[axis] <= limit + EPS for axis in range(3))


def _allocate(node: dict, request_id: str, pct: List[float]) -> None:
    for axis in range(3):
        node["util"][axis] += pct[axis]
    node["allocated"].add(request_id)


def _next_auto_id(existing: set) -> str:
    n = 1
    while f"auto-{n}" in existing:
        n += 1
    return f"auto-{n}"


def _run_threshold(
    requests: Sequence[GptRequest],
    nodes: Sequence[Node],
    threshold: float,
    descending: bool,
    autoscale_template: Optional[NodeTemplate],
    coeffs: ProfilerCoefficients,
    resort: bool = False,
) -> dict:
    demands = _demands(requests, coeffs)
    queue = _sorted_requests(requests, demands)
    states = [_node_state(node) for node in nodes]

    def sort_states() -> None:
        if descending:
            states.sort(key=lambda s: (-s["util"][0], s["id"]))
        else:
            states.sort(key=lambda s: (s["util"][0], s["id"]))

    sort_states()
    allocation: Dict[str, str] = {}
    unallocated: List[str] = []
    created: List[str] = []
    existing_ids = {s["id"] for s in states}
    dirty = False

    for request in queue:
        if resort and dirty:
            sort_states()
            dirty = False
        demand = demands[request.id]
        chosen = None
        for state in states:
            pct = _percentages(demand, state)
            if _fits(state, pct, threshold):
                chosen = state
                break
        if chosen is not None:
            _allocate(chosen, request.id, _percentages(demand, chosen))
            allocation[request.id] = chosen["id"]
            dirty = True
            continue
        if autoscale_template is None:
            unallocated.append(request.id)
            continue
        new_id = _next_auto_id(existing_ids)
        fresh = _template_state(autoscale_template, new_id)
        pct = _percentages(demand, fresh)
        if _fits(fresh, pct, threshold):
            _allocate(fresh, request.id, pct)
            states.append(fresh)
            existing_ids.add(new_id)
            created.append(new_id)
            allocation[request.id] = new_id
            dirty = True
        else:
            unallocated.append(request.id)

    return {
        "allocation": allocation,
        "unallocated": unallocated,
        "created": created,
        "nodes": states,
    }


def ref_max_util(
    requests: Sequence[GptRequest],
    nodes: Sequence[Node],
    threshold: float,
    autoscale_template: Optional[NodeTemplate] = None,
    coeffs: ProfilerCoefficients = ProfilerCoefficients(),
    resort: bool = False,
) -> dict:
    """First fit over nodes sorted by descending compute utilization."""

    return _run_threshold(requests, nodes, threshold, True, autoscale_template, coeffs, resort)


def ref_load_balance(
    requests: Sequence[GptRequest],
    nodes: Sequence[Node],
    threshold: float,
    autoscale_template: Optional[NodeTemplate] = None,
    coeffs: ProfilerCoefficients = ProfilerCoefficients(),
    resort: bool = False,
) -> dict:
    """First fit over nodes sorted by ascending compute utilization."""

    return _run_threshold(requests, nodes, threshold, False, autoscale_template, coeffs, resort)


def ref_first_fit_records(
    requests: Sequence[GptRequest],
    nodes: Sequence[Node],
    threshold: float,
    descending: bool,
    autoscale_template: Optional[NodeTemplate] = None,
    coeffs: ProfilerCoefficients = ProfilerCoefficients(),
) -> List[tuple]:
    """Sort-once first fit, one record per request in decision order:
    (request_id, scanned ids, chosen id or None, created, pct or None,
    rejection reason or None). Every node examined is listed in scanned,
    the chosen one last; a created node follows a full failed scan."""

    demands = _demands(requests, coeffs)
    states = [_node_state(node) for node in nodes]
    if descending:
        states.sort(key=lambda s: (-s["util"][0], s["id"]))
    else:
        states.sort(key=lambda s: (s["util"][0], s["id"]))
    existing_ids = {s["id"] for s in states}
    records: List[tuple] = []

    for request in _sorted_requests(requests, demands):
        demand = demands[request.id]
        scanned: List[str] = []
        chosen = None
        for state in states:
            scanned.append(state["id"])
            if _fits(state, _percentages(demand, state), threshold):
                chosen = state
                break
        created = False
        if chosen is None and autoscale_template is not None:
            fresh = _template_state(autoscale_template, _next_auto_id(existing_ids))
            if _fits(fresh, _percentages(demand, fresh), threshold):
                states.append(fresh)
                existing_ids.add(fresh["id"])
                chosen = fresh
                created = True
        if chosen is None:
            reason = "no-feasible-node" if autoscale_template is None else "infeasible-on-any-node"
            records.append((request.id, tuple(scanned), None, False, None, reason))
            continue
        pct = _percentages(demand, chosen)
        _allocate(chosen, request.id, pct)
        records.append((request.id, tuple(scanned), chosen["id"], created, tuple(pct), None))
    return records


def _ref_node_power(state: dict, policy: PowerPolicy) -> float:
    if policy.off_when_empty and not state["allocated"]:
        return 0.0
    return state["p_idle"] + (state["p_max"] - state["p_idle"]) * state["util"][0]


def _ref_delta(state: dict, pct: List[float], policy: PowerPolicy) -> float:
    after = state["p_idle"] + (state["p_max"] - state["p_idle"]) * (state["util"][0] + pct[0])
    if policy.mode is PowerMode.ABSOLUTE_AFTER:
        return after
    return after - _ref_node_power(state, policy)


def ref_power_efficient(
    requests: Sequence[GptRequest],
    nodes: Sequence[Node],
    policy: PowerPolicy = PowerPolicy(),
    autoscale_template: Optional[NodeTemplate] = None,
    coeffs: ProfilerCoefficients = ProfilerCoefficients(),
) -> dict:
    """Minimum-power-delta placement over all capacity-feasible nodes.

    Every request scans all current nodes in ascending id order, keeps the
    node with the strictly smallest power delta (ties keep the first seen),
    and is rejected when no node can hold it within full capacity. A new
    node is created only when an autoscale template is configured.
    """

    demands = _demands(requests, coeffs)
    queue = _sorted_requests(requests, demands)
    states = [_node_state(node) for node in nodes]
    allocation: Dict[str, str] = {}
    unallocated: List[str] = []
    created: List[str] = []
    existing_ids = {s["id"] for s in states}

    for request in queue:
        demand = demands[request.id]
        best = None
        best_delta = float("inf")
        for state in sorted(states, key=lambda s: s["id"]):
            pct = _percentages(demand, state)
            if not _fits(state, pct, 1.0):
                continue
            delta = _ref_delta(state, pct, policy)
            if delta < best_delta:
                best = state
                best_delta = delta
        if best is not None:
            _allocate(best, request.id, _percentages(demand, best))
            allocation[request.id] = best["id"]
            continue
        if autoscale_template is None:
            unallocated.append(request.id)
            continue
        new_id = _next_auto_id(existing_ids)
        fresh = _template_state(autoscale_template, new_id)
        pct = _percentages(demand, fresh)
        if _fits(fresh, pct, 1.0):
            _allocate(fresh, request.id, pct)
            states.append(fresh)
            existing_ids.add(new_id)
            created.append(new_id)
            allocation[request.id] = new_id
        else:
            unallocated.append(request.id)

    return {
        "allocation": allocation,
        "unallocated": unallocated,
        "created": created,
        "nodes": states,
    }


def ref_timeline(
    requests: Sequence[GptRequest],
    nodes: Sequence[Node],
    algorithm: str,
    config: SchedulerConfig,
    adaptor: AdaptorPolicy,
    interval: float,
    coeffs: ProfilerCoefficients = ProfilerCoefficients(),
) -> dict:
    """Event-by-event replay of a timed workload on a list of Node values.

    Each arrival calls the list-based scheduler for that one request, each
    departure replaces its node with release_from_node, total power is
    total_power over the list after every event and snapshot rows price
    nodes with node_power. Events at equal times run departure, arrival,
    snapshot, scale-down check, then by id. A scale check whose node was
    reused or removed since it was armed, or whose removal would go below
    retain_min_nodes, is dropped without moving the snapshot grid.

    Returns {"events", "snapshots", "power_steps", "outcome", "report"} with
    the same types as TimelineResult, plus "nodes_at_event": the node list
    as it stood after each event.
    """

    depart, arrive, snap, check = 0, 1, 2, 3
    schedule = ALGORITHMS[algorithm]
    policy = config.power_policy
    by_id = {r.id: r for r in requests}
    cluster = list(nodes)
    sequence = NodeIdSequence(n.id for n in nodes)
    heap = [(r.arrival_s, arrive, r.id, r.id) for r in requests]
    heapq.heapify(heap)
    allocation: Dict[str, str] = {}
    unallocated: List[str] = []
    created: List[str] = []
    trace: list = []
    pct_of: dict = {}
    node_of: Dict[str, str] = {}
    empty_since: Dict[str, float] = {}
    events: List[SimEvent] = []
    snapshots: List[SnapshotRow] = []
    steps: list = []
    seen: list = []
    horizon = None

    def index_of(node_id: str) -> int:
        return next(i for i, n in enumerate(cluster) if n.id == node_id)

    def after_event(event: SimEvent) -> None:
        if event.kind is not EventKind.SNAPSHOT:
            watts = total_power(cluster, policy)
            if steps[-1][1] != watts:
                steps.append((event.time_s, watts))
        events.append(event)
        seen.append(tuple(cluster))

    def snapshot(time_s: float) -> None:
        for n in sorted(cluster, key=lambda n: n.id):
            u = n.utilization
            snapshots.append(
                SnapshotRow(time_s, n.id, u.compute, u.memory, u.storage, node_power(n, policy))
            )
        after_event(SimEvent(time_s, EventKind.SNAPSHOT))

    steps.append((0.0, total_power(cluster, policy)))
    grid = 0
    while heap:
        time_s, rank, _, payload = heap[0]
        if rank == check:
            node_id, armed_at = payload
            if empty_since.get(node_id) != armed_at or len(cluster) - 1 < adaptor.retain_min_nodes:
                heapq.heappop(heap)
                continue
        if grid * interval < time_s or (grid * interval == time_s and rank > snap):
            snapshot(grid * interval)
            grid += 1
            continue
        heapq.heappop(heap)
        horizon = time_s
        if rank == arrive:
            request = by_id[payload]
            outcome = schedule([request], cluster, config, coeffs=coeffs, id_sequence=sequence)
            trace.extend(outcome.trace)
            created.extend(outcome.created_node_ids)
            if payload in outcome.allocation:
                node_id = outcome.allocation[payload]
                allocation[payload] = node_of[payload] = node_id
                pct_of[payload] = outcome.trace[0].pct
                empty_since.pop(node_id, None)
                heapq.heappush(heap, (time_s + request.duration_s, depart, payload, payload))
            else:
                unallocated.append(payload)
            after_event(SimEvent(time_s, EventKind.ARRIVAL, request_id=payload))
        elif rank == depart:
            node_id = node_of.pop(payload)
            i = index_of(node_id)
            cluster[i] = release_from_node(cluster[i], payload, pct_of[payload])
            if cluster[i].is_empty:
                empty_since[node_id] = time_s
                heapq.heappush(
                    heap, (time_s + adaptor.scale_down_grace_s, check, node_id, (node_id, time_s))
                )
            after_event(SimEvent(time_s, EventKind.DEPARTURE, request_id=payload))
        else:
            node_id = payload[0]
            del empty_since[node_id]
            del cluster[index_of(node_id)]
            after_event(SimEvent(time_s, EventKind.SCALE_CHECK, node_id=node_id))
    if horizon is not None:
        while grid * interval <= horizon:
            snapshot(grid * interval)
            grid += 1

    watt_seconds = 0.0
    if horizon is not None:
        for k, (start, watts) in enumerate(steps):
            if start >= horizon:
                break
            end = steps[k + 1][0] if k + 1 < len(steps) else horizon
            watt_seconds += watts * (min(end, horizon) - start)
    misses = sum(
        1
        for r in requests
        if r.deadline_s is not None and (r.id in unallocated or r.duration_s > r.deadline_s)
    )
    outcome = AllocationOutcome(allocation, tuple(unallocated), tuple(created), tuple(trace))
    report = build_report(
        outcome,
        cluster,
        policy,
        deadline_misses=misses,
        energy_wh=watt_seconds / 3600.0,
        require_allocation_targets=False,
    )
    return {
        "events": tuple(events),
        "snapshots": tuple(snapshots),
        "power_steps": tuple(steps),
        "outcome": outcome,
        "report": report,
        "nodes_at_event": seen,
    }


def ref_canonical_json(value: object) -> str:
    """Serialize a JSON tree deterministically.

    Dict keys keep insertion order (callers build them in schema order);
    floats go through format_float. Round-trip stable: parsing the output
    and re-serializing reproduces the same bytes.
    """

    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, dict):
        parts = (f"{json.dumps(str(k), ensure_ascii=False)}:{ref_canonical_json(v)}" for k, v in value.items())
        return "{" + ",".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(ref_canonical_json(item) for item in value) + "]"
    raise ValidationError(f"cannot serialize {type(value).__name__} canonically")


def _ref_finite(name: str, value: float) -> float:
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return float(value)


def _ref_non_negative(name: str, value: float) -> float:
    value = _ref_finite(name, value)
    if value < 0.0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return value


def ref_resource_vector(compute: float, memory_gib: float, storage_gib: float) -> tuple:
    return (
        _ref_non_negative("compute", compute),
        _ref_non_negative("memory_gib", memory_gib),
        _ref_non_negative("storage_gib", storage_gib),
    )


def ref_utilization_vector(compute: float, memory: float, storage: float) -> tuple:
    return (
        _ref_non_negative("compute", compute),
        _ref_non_negative("memory", memory),
        _ref_non_negative("storage", storage),
    )


def ref_request_fields(
    request_id: str, task_kind: object, model_params_b: object, prompt_tokens: object,
    output_tokens: object, arrival_s: object, duration_s: object, deadline_s: object,
) -> dict:
    """The numeric fields a GptRequest keeps, in field order."""

    if not request_id:
        raise ValidationError("request id must be a non-empty string")
    if not isinstance(task_kind, TaskKind):
        raise ValidationError(f"task_kind must be a TaskKind, got {task_kind!r}")
    fields = {"model_params_b": _ref_non_negative("model_params_b", model_params_b)}
    for name, value in (("prompt_tokens", prompt_tokens), ("output_tokens", output_tokens)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValidationError(f"{name} must be a non-negative int, got {value!r}")
        _ref_finite(name, value)
        fields[name] = value
    fields["arrival_s"] = None if arrival_s is None else _ref_non_negative("arrival_s", arrival_s)
    for name, value in (("duration_s", duration_s), ("deadline_s", deadline_s)):
        if value is not None:
            value = _ref_finite(name, value)
            if value <= 0.0:
                raise ValidationError(f"{name} must be > 0, got {value!r}")
        fields[name] = value
    return fields


def ref_read_number(value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"must be finite, got {value!r}")
    return number


def ref_read_int(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"must be an integer, got {value!r}")
    ref_read_number(value)
    return value


_REF_TRACE_KEYS = ("id", "task_kind", "model_params_b", "prompt_tokens", "output_tokens")
_REF_TRACE_NUMBERS = (
    ("model_params_b", ref_read_number), ("arrival_s", ref_read_number), ("duration_s", ref_read_number),
    ("deadline_s", ref_read_number), ("prompt_tokens", ref_read_int), ("output_tokens", ref_read_int),
)


def ref_trace_record(obj: object, line_no: int) -> dict:
    """request_from_dict for a record without demand, spelled out: every
    key, the id, the task kind and each number checked in turn, then the
    fields ref_request_fields keeps, with id and task_kind."""

    if not isinstance(obj, dict):
        raise TraceParseError(line_no, f"record must be a JSON object, got {type(obj).__name__}")
    for key in _REF_TRACE_KEYS:
        if key not in obj:
            raise TraceParseError(line_no, f"missing required field {key!r}")
    unknown = sorted(set(obj) - set(_REF_TRACE_KEYS) - {"demand", "arrival_s", "duration_s", "deadline_s"})
    if unknown:
        raise TraceParseError(line_no, f"unknown fields {unknown}")
    if "demand" in obj:
        raise NotImplementedError("records with a demand are outside this reference")
    request_id = obj["id"]
    if not isinstance(request_id, str) or not request_id:
        raise TraceParseError(line_no, f"field 'id' must be a non-empty string, got {request_id!r}")
    try:
        request_id.encode("utf-8")
    except UnicodeEncodeError:
        raise TraceParseError(line_no, f"field 'id' must be encodable as UTF-8, got {request_id!r}") from None
    try:
        kind = TaskKind(obj["task_kind"])
    except (ValueError, TypeError):
        raise TraceParseError(line_no, f"unknown task_kind {obj['task_kind']!r}") from None
    numbers: Dict[str, object] = {"arrival_s": None, "duration_s": None, "deadline_s": None}
    for key, read in _REF_TRACE_NUMBERS:
        if key in obj:
            try:
                numbers[key] = read(obj[key])
            except ValidationError as exc:
                raise TraceParseError(line_no, f"field {key!r} {exc}") from None
    if numbers["model_params_b"] <= 0.0:
        raise TraceParseError(line_no, "request without explicit demand must have model_params_b > 0")
    try:
        fields = ref_request_fields(
            request_id, kind, numbers["model_params_b"], numbers["prompt_tokens"], numbers["output_tokens"],
            numbers["arrival_s"], numbers["duration_s"], numbers["deadline_s"],
        )
    except ValidationError as exc:
        raise TraceParseError(line_no, str(exc)) from None
    return {"id": request_id, "task_kind": kind, **fields}
