"""Linear node power model and allocation power deltas.

A powered-on node draws p_idle_w plus a term linear in compute utilization,
reaching p_max_w at 100%. A node with nothing allocated can be treated as
powered off (0 W); that behavior and the meaning of a power delta are
selected by PowerPolicy.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from .model import Node, UtilizationVector, record


class PowerMode(str, Enum):
    """How estimate_power_delta prices an allocation.

    INCREMENTAL: power after the allocation minus power before it. Turning a
    node on pays its idle cost; adding to a hot node pays only the slope.
    ABSOLUTE_AFTER: the node's absolute power after the allocation.
    """

    INCREMENTAL = "incremental"
    ABSOLUTE_AFTER = "absolute-after"


@record
class PowerPolicy:
    """Power accounting knobs shared by metrics, scheduling and simulation."""

    mode: PowerMode = PowerMode.INCREMENTAL
    off_when_empty: bool = True


DEFAULT_POWER_POLICY = PowerPolicy()


def node_power(node: Node, policy: PowerPolicy = DEFAULT_POWER_POLICY) -> float:
    """Current draw of one node in watts.

    0 when the node is empty and the policy powers empty nodes off;
    otherwise p_idle + (p_max - p_idle) * compute utilization.
    """

    if policy.off_when_empty and node.is_empty:
        return 0.0
    template = node.template
    return template.p_idle_w + (template.p_max_w - template.p_idle_w) * node.utilization.compute


def estimate_power_delta(
    node: Node, pct: UtilizationVector, policy: PowerPolicy = DEFAULT_POWER_POLICY
) -> float:
    """Power cost of placing an allocation with the given percentages on node.

    INCREMENTAL mode returns power-after minus power-before, so waking an
    empty node is penalized by its idle draw. ABSOLUTE_AFTER returns the
    node's absolute draw after the allocation. Feasibility is not checked.
    """

    template = node.template
    slope = template.p_max_w - template.p_idle_w
    after = template.p_idle_w + slope * (node.utilization.compute + pct.compute)
    if policy.mode is PowerMode.ABSOLUTE_AFTER:
        return after
    return after - node_power(node, policy)


def total_power(nodes: Iterable[Node], policy: PowerPolicy = DEFAULT_POWER_POLICY) -> float:
    """Sum of node_power over the nodes."""

    return sum(node_power(node, policy) for node in nodes)
