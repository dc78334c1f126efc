"""Objective metrics over a cluster state and report assembly.

The three scheduling objectives are measured as:

    mean compute utilization   sum(u_compute(node)) / k
    utilization stddev         population standard deviation of u_compute
    total power                sum of node power draws in watts

k counts every provisioned node, including empty ones and nodes created by
autoscaling, so consolidation is rewarded only when idle nodes are actually
retired.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

from .model import GptSchedError, Node, UtilizationVector
from .power import DEFAULT_POWER_POLICY, PowerPolicy, total_power
from .scheduling import AllocationOutcome


class UndefinedMetricError(GptSchedError):
    """A metric was requested over an empty node list."""


class IntegrityError(GptSchedError):
    """An outcome and a cluster state contradict each other."""


@dataclass(frozen=True)
class Report:
    """Summary of one scheduling run: objective metrics plus counts.

    deadline_misses and energy_wh are populated only by timeline
    simulations; batch runs leave them None.
    """

    mean_compute_utilization: float
    utilization_stddev: float
    total_power_w: float
    node_count: int
    created_node_count: int
    request_count: int
    unallocated_count: int
    per_resource_mean_utilization: UtilizationVector
    deadline_misses: Optional[int] = None
    energy_wh: Optional[float] = None


def mean_compute_utilization(nodes: Sequence[Node]) -> float:
    """Mean compute utilization over all nodes. Undefined for no nodes."""

    if not nodes:
        raise UndefinedMetricError("mean utilization is undefined over zero nodes")
    return statistics.fmean(node.utilization.compute for node in nodes)


def utilization_stddev(nodes: Sequence[Node]) -> float:
    """Population standard deviation of compute utilization across nodes.

    statistics.pstdev accumulates squared deviations in exact rational
    arithmetic, so identical utilizations report exactly 0.0 spread.
    """

    if not nodes:
        raise UndefinedMetricError("utilization stddev is undefined over zero nodes")
    return statistics.pstdev(node.utilization.compute for node in nodes)


def per_resource_mean_utilization(nodes: Sequence[Node]) -> UtilizationVector:
    """Mean utilization per axis over all nodes. Undefined for no nodes."""

    if not nodes:
        raise UndefinedMetricError("per-resource means are undefined over zero nodes")
    return UtilizationVector(
        compute=statistics.fmean(node.utilization.compute for node in nodes),
        memory=statistics.fmean(node.utilization.memory for node in nodes),
        storage=statistics.fmean(node.utilization.storage for node in nodes),
    )


def build_report(
    outcome: AllocationOutcome,
    nodes: Sequence[Node],
    policy: PowerPolicy = DEFAULT_POWER_POLICY,
    deadline_misses: Optional[int] = None,
    energy_wh: Optional[float] = None,
    require_allocation_targets: bool = True,
) -> Report:
    """Assemble a Report from an outcome and the resulting cluster state.

    With no nodes at all the utilization metrics are reported as zero
    rather than undefined, so a fully scaled-down cluster still reports.

    Integrity checks, raising IntegrityError on contradiction: a request id
    may not be both allocated and unallocated, and allocation targets must
    exist among the nodes. Timeline simulations pass
    require_allocation_targets=False because scale-down legitimately
    removes nodes that served requests earlier in the run.
    """

    overlap = set(outcome.allocation) & set(outcome.unallocated)
    if overlap:
        raise IntegrityError(f"requests both allocated and unallocated: {sorted(overlap)}")
    node_ids = {node.id for node in nodes}
    if require_allocation_targets:
        missing = {nid for nid in outcome.allocation.values() if nid not in node_ids}
        if missing:
            raise IntegrityError(f"allocation targets not in cluster: {sorted(missing)}")

    if nodes:
        stddev = utilization_stddev(nodes)
        per_resource = per_resource_mean_utilization(nodes)
    else:
        stddev = 0.0
        per_resource = UtilizationVector(0.0, 0.0, 0.0)

    return Report(
        mean_compute_utilization=per_resource.compute,
        utilization_stddev=stddev,
        total_power_w=total_power(nodes, policy),
        node_count=len(nodes),
        created_node_count=len(outcome.created_node_ids),
        request_count=len(outcome.allocation) + len(outcome.unallocated),
        unallocated_count=len(outcome.unallocated),
        per_resource_mean_utilization=per_resource,
        deadline_misses=deadline_misses,
        energy_wh=energy_wh,
    )
