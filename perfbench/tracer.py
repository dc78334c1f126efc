"""Outside-in tracing of one in-process CLI run.

The program has no tracing of its own, so the benchmark wraps the public
functions the CLI and the simulator look up by module attribute, runs
``gptsched.cli.main`` once, and restores every attribute afterwards. Each
wrapped call records a span (name, start, end, parent span, request id for
single-request scheduler calls) in memory; counters are read from the
arguments and return values after the span closes, so counting is not
charged to the layer. Self time is a span's duration minus the time
covered by its direct child spans.
"""

from __future__ import annotations

import os
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

After = Callable[[Tuple[Any, ...], Dict[str, Any], Any], None]

EVENT_KINDS = ("arrival", "departure", "snapshot", "scale-check")


class Tracer:
    """Spans, counters and timeline events of one traced run.

    Spans are stored column-wise (name, start, end, parent index or -1,
    request id) in arrays and lists of atoms, so recording tens of
    thousands of them adds no objects for the garbage collector to track.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.request_ids: List[Optional[str]] = []
        self.counts: Dict[str, int] = {}
        # Kind and live node count of each processed timeline event.
        self.event_kinds: List[str] = []
        self.event_nodes = array("q")
        self._stack = array("q")

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable[..., Any], after: Optional[After] = None) -> Callable[..., Any]:
        names, starts, ends, parents, request_ids = (
            self.names, self.starts, self.ends, self.parents, self.request_ids
        )
        stack = self._stack
        clock = time.perf_counter
        per_request = name.startswith("scheduling.")

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            request_ids.append(args[0][0].id if per_request and len(args[0]) == 1 else None)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def on_event(self, event: Any, nodes: Any) -> None:
        self.event_kinds.append(event.kind.value)
        self.event_nodes.append(len(nodes))

    def spans(self) -> Iterator[Tuple[str, float, float, int, Optional[str]]]:
        return zip(self.names, self.starts, self.ends, self.parents, self.request_ids)


def _sink_size(sink: Any) -> int:
    return os.path.getsize(sink) if isinstance(sink, (str, os.PathLike)) else 0


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Patch the program's module attributes for the duration of the block."""

    from gptsched import cli, scheduling, simulator

    def load_trace_done(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> None:
        tracer.count("workload.records", len(result))

    def written(sink_index: int) -> After:
        def done(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> None:
            tracer.count("reportio.bytes_written", _sink_size(args[sink_index]))

        return done

    def scheduled(args: Tuple[Any, ...], kwargs: Dict[str, Any], outcome: Any) -> None:
        tracer.count("scheduling.calls")
        tracer.count("scheduling.decisions", len(outcome.trace))
        tracer.count("scheduling.nodes_scanned", sum(len(r.scanned) for r in outcome.trace))
        tracer.count("scheduling.nodes_created", len(outcome.created_node_ids))
        tracer.count("scheduling.rejected", len(outcome.unallocated))

    def counted(name: str, arg_index: Optional[int] = None) -> After:
        def done(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> None:
            tracer.count(name, 1 if arg_index is None else len(args[arg_index]))

        return done

    def timeline_done(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> None:
        tracer.count("simulator.events", len(result.events))
        tracer.count("simulator.snapshot_rows", len(result.snapshots))
        tracer.count("simulator.power_steps", len(result.power_steps))

    def with_on_event(run_timeline: Callable[..., Any]) -> Callable[..., Any]:
        def run(*args: Any, **kwargs: Any) -> Any:
            chained = kwargs.get("on_event")

            def on_event(event: Any, nodes: Any) -> None:
                tracer.on_event(event, nodes)
                if chained is not None:
                    chained(event, nodes)

            kwargs["on_event"] = on_event
            return run_timeline(*args, **kwargs)

        return run

    patches: List[Tuple[Any, str, Callable[..., Any]]] = [
        (cli, "load_trace", tracer.wrap("workload.load_trace", cli.load_trace, load_trace_done)),
        (cli, "load_cluster_config", tracer.wrap("config.load", cli.load_cluster_config)),
        (cli, "default_config", tracer.wrap("config.load", cli.default_config)),
        (cli, "write_outcome_document",
         tracer.wrap("reportio.write", cli.write_outcome_document, written(3))),
        (cli, "write_report", tracer.wrap("reportio.write", cli.write_report, written(2))),
        (cli, "run_timeline",
         tracer.wrap("simulator.run_timeline", with_on_event(cli.run_timeline), timeline_done)),
        (scheduling, "estimate_demand",
         tracer.wrap("profiler.estimate_demand", scheduling.estimate_demand, counted("profiler.calls"))),
        (simulator, "build_report",
         tracer.wrap("metrics.build_report", simulator.build_report, counted("metrics.nodes_reported", 1))),
        (simulator, "total_power",
         tracer.wrap("power.total_power", simulator.total_power, counted("power.nodes_summed", 0))),
        # Only the simulator's own node_power calls, one per node in each
        # snapshot row. The calls inside total_power go through the power
        # module's global and stay in its self time: a span for each would
        # cost more than the call.
        (simulator, "node_power", tracer.wrap("power.snapshot_node_power", simulator.node_power)),
        (simulator, "release_from_node",
         tracer.wrap("model.release", simulator.release_from_node, counted("model.release_calls"))),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    algorithms = dict(scheduling.ALGORITHMS)
    try:
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        for name, fn in algorithms.items():
            scheduling.ALGORITHMS[name] = tracer.wrap(f"scheduling.{name}", fn, scheduled)
        yield
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)
        scheduling.ALGORITHMS.update(algorithms)


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""

    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run whose main() took wall_s."""

    child = [0.0] * len(tracer.names)
    for _, start, end, parent, _ in tracer.spans():
        if parent >= 0:
            child[parent] += end - start
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for index, (name, start, end, _, _) in enumerate(tracer.spans()):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[index]
        calls[name] = calls.get(name, 0) + 1

    counts = tracer.counts
    metrics: Dict[str, float] = {}

    write_s = self_s.get("reportio.write", 0.0)
    written = counts.get("reportio.bytes_written", 0)
    metrics["reportio.write_s"] = write_s
    metrics["reportio.bytes_written"] = written
    metrics["reportio.mib_per_s"] = written / 2**20 / write_s if write_s > 0 else 0.0

    metrics["scheduling.place_s"] = sum(v for k, v in self_s.items() if k.startswith("scheduling."))
    for name in ("calls", "decisions", "nodes_scanned", "nodes_created", "rejected"):
        metrics[f"scheduling.{name}"] = counts.get(f"scheduling.{name}", 0)
    scanned = counts.get("scheduling.nodes_scanned", 0)
    metrics["scheduling.scan_yield"] = counts.get("scheduling.decisions", 0) / scanned if scanned else 0.0
    call_us = [(end - start) * 1e6 for name, start, end, _, _ in tracer.spans() if name.startswith("scheduling.")]
    metrics["scheduling.call_us.p50"] = _percentile(call_us, 50)
    metrics["scheduling.call_us.p99"] = _percentile(call_us, 99)

    metrics["profiler.estimate_demand_s"] = self_s.get("profiler.estimate_demand", 0.0)
    metrics["profiler.calls"] = counts.get("profiler.calls", 0)
    metrics["power.total_power_s"] = self_s.get("power.total_power", 0.0)
    metrics["power.total_power_calls"] = calls.get("power.total_power", 0)
    metrics["power.nodes_summed"] = counts.get("power.nodes_summed", 0)
    metrics["power.snapshot_node_power_s"] = self_s.get("power.snapshot_node_power", 0.0)
    metrics["model.release_s"] = self_s.get("model.release", 0.0)
    metrics["model.release_calls"] = counts.get("model.release_calls", 0)

    metrics["simulator.loop_self_s"] = self_s.get("simulator.run_timeline", 0.0)
    for kind in EVENT_KINDS:
        metrics[f"simulator.events.{kind}"] = tracer.event_kinds.count(kind)
    metrics["simulator.snapshot_rows"] = counts.get("simulator.snapshot_rows", 0)
    metrics["simulator.power_steps"] = counts.get("simulator.power_steps", 0)
    metrics["simulator.peak_nodes"] = max(tracer.event_nodes, default=0)
    metrics["simulator.node_visits"] = sum(tracer.event_nodes)
    timeline_s = sum(end - start for name, start, end, _, _ in tracer.spans() if name == "simulator.run_timeline")
    events = len(tracer.event_kinds)
    metrics["simulator.us_per_event"] = timeline_s / events * 1e6 if events else 0.0

    metrics["workload.load_trace_s"] = self_s.get("workload.load_trace", 0.0)
    metrics["workload.records"] = counts.get("workload.records", 0)
    metrics["config.load_s"] = self_s.get("config.load", 0.0)
    metrics["metrics.build_report_s"] = self_s.get("metrics.build_report", 0.0)
    metrics["metrics.nodes_reported"] = counts.get("metrics.nodes_reported", 0)

    metrics["reportio.share_pct"] = 100.0 * write_s / wall_s
    metrics["scheduling.share_pct"] = 100.0 * metrics["scheduling.place_s"] / wall_s
    metrics["trace.unattributed_s"] = wall_s - sum(self_s.values())
    return metrics
