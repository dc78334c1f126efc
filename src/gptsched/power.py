"""Linear node power model and the policy that prices allocations.

A powered-on node draws p_idle_w plus a term linear in compute utilization,
reaching p_max_w at 100%. A node with nothing allocated can be treated as
powered off (0 W); that behavior and the meaning of a power delta are
selected by PowerPolicy. scheduling.ClusterState and the power scheduler
apply both to their per-node arrays.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from .model import Node, record


class PowerMode(str, Enum):
    """How the power scheduler prices an allocation on a candidate node.

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


def total_power(nodes: Iterable[Node], policy: PowerPolicy = DEFAULT_POWER_POLICY) -> float:
    """Sum of node_power over the nodes."""

    return sum(node_power(node, policy) for node in nodes)
