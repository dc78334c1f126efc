"""Objective metrics over a cluster state and report assembly.

The three scheduling objectives are measured as:

    mean compute utilization   sum(u_compute(node)) / k
    utilization stddev         population standard deviation of u_compute
    total power                sum of node power draws in watts

k counts every provisioned node, including empty ones and nodes created by
autoscaling, so consolidation is rewarded only when idle nodes are actually
retired. Each mean is the exact sum (math.fsum) divided by k, and the
stddev is the correctly rounded square root of the exact population
variance, so both are the same float on every interpreter. Each metric
reads a scheduling.ClusterState's per-node columns; a Node sequence is
converted to one first, so a repeated node id is refused.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from .model import GptSchedError, Node, UtilizationVector, record
from .power import DEFAULT_POWER_POLICY, PowerPolicy
from .scheduling import AllocationOutcome, ClusterState


class UndefinedMetricError(GptSchedError):
    """A metric was requested over an empty node list."""


class IntegrityError(GptSchedError):
    """An outcome and a cluster state contradict each other."""


@record
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


def _columns(nodes: Sequence[Node], policy: PowerPolicy = DEFAULT_POWER_POLICY, undefined: str = "") -> ClusterState:
    """A state as it is, a Node sequence converted; zero nodes raise undefined, when set."""

    if undefined and not nodes:
        raise UndefinedMetricError(undefined)
    return nodes if isinstance(nodes, ClusterState) else ClusterState(nodes, policy)


def _mean(values: List[float]) -> float:
    return math.fsum(values) / len(values)


def mean_compute_utilization(nodes: Sequence[Node]) -> float:
    """Mean compute utilization over all nodes. Undefined for no nodes."""

    return _mean(_columns(nodes, undefined="mean utilization is undefined over zero nodes").uc)


# Bits of the integer root before the one rounding to a float: two float
# significands and three more, so that rounding to odd first loses nothing.
_ROOT_BITS = 2 * 53 + 3


def utilization_stddev(nodes: Sequence[Node]) -> float:
    """Population standard deviation of compute utilization across nodes.

    The variance n*sum(x**2) - sum(x)**2 over n**2 is formed exactly in
    integers, each utilization scaled to the largest power-of-two
    denominator among them, so identical utilizations report exactly 0.0
    spread. Its square root is correctly rounded: the integer root carries
    at least 55 bits, rounded to odd, before the one rounding to a float
    (https://bugs.python.org/msg407078).
    """

    uc = _columns(nodes, undefined="utilization stddev is undefined over zero nodes").uc
    ratios = [u.as_integer_ratio() for u in uc]
    scale = max(d for _, d in ratios)  # every d is a power of two
    scaled = [n * (scale // d) for n, d in ratios]
    count, total = len(scaled), sum(scaled)
    num = count * sum(x * x for x in scaled) - total * total
    den = (count * scale) ** 2
    if not num:
        return 0.0
    # Scale num/den by 4**-shift so that its root has at least 55 bits, and
    # undo the scaling in the one division that rounds to a float.
    shift = (num.bit_length() - den.bit_length() - _ROOT_BITS) // 2
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


def per_resource_mean_utilization(nodes: Sequence[Node]) -> UtilizationVector:
    """Mean utilization per axis over all nodes. Undefined for no nodes."""

    state = _columns(nodes, undefined="per-resource means are undefined over zero nodes")
    return UtilizationVector(compute=_mean(state.uc), memory=_mean(state.um), storage=_mean(state.us))


def build_report(
    outcome: AllocationOutcome,
    nodes: Sequence[Node],
    policy: PowerPolicy = DEFAULT_POWER_POLICY,
    deadline_misses: Optional[int] = None,
    energy_wh: Optional[float] = None,
    require_allocation_targets: bool = True,
) -> Report:
    """Assemble a Report from an outcome and the resulting cluster state.

    A state priced under a policy other than policy is refused. With no
    nodes at all the utilization metrics are reported as zero rather than
    undefined, so a fully scaled-down cluster still reports.

    Integrity checks, raising IntegrityError on contradiction: a request id
    may not be both allocated and unallocated, and allocation targets must
    exist among the nodes. Timeline simulations pass
    require_allocation_targets=False because scale-down legitimately
    removes nodes that served requests earlier in the run.
    """

    overlap = set(outcome.allocation) & set(outcome.unallocated)
    if overlap:
        raise IntegrityError(f"requests both allocated and unallocated: {sorted(overlap)}")
    state = _columns(nodes, policy)
    state.check_policy(policy)
    if require_allocation_targets:
        missing = {nid for nid in outcome.allocation.values() if nid not in state.index}
        if missing:
            raise IntegrityError(f"allocation targets not in cluster: {sorted(missing)}")

    stddev = utilization_stddev(state) if state else 0.0
    per_resource = per_resource_mean_utilization(state) if state else UtilizationVector(0.0, 0.0, 0.0)

    return Report(
        mean_compute_utilization=per_resource.compute,
        utilization_stddev=stddev,
        total_power_w=sum(state.power, 0.0),  # a float with no nodes too
        node_count=len(state),
        created_node_count=len(outcome.created_node_ids),
        request_count=len(outcome.allocation) + len(outcome.unallocated),
        unallocated_count=len(outcome.unallocated),
        per_resource_mean_utilization=per_resource,
        deadline_misses=deadline_misses,
        energy_wh=energy_wh,
    )
