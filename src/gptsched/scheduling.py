"""Greedy allocation heuristics for batches of inference requests.

Three schedulers share the same skeleton: resolve every request's demand
through the profiler, order requests by descending compute demand (ties by
ascending id), then place them one at a time. They differ in how candidate
nodes are ordered and judged:

``schedule_max_util``
    First fit over nodes sorted by descending compute utilization, so work
    consolidates onto the fullest nodes that still have room under the
    per-axis threshold.

``schedule_load_balance``
    First fit over nodes sorted by ascending compute utilization, spreading
    work onto the emptiest nodes first, same threshold rule.

``schedule_power_efficient``
    Scans every node in ascending id order, keeps the one with the strictly
    smallest power delta among nodes with enough remaining capacity
    (full capacity, not the threshold), ties keeping the first seen.

Determinism pins, identical in the naive reference oracle used by tests:
every node ordering breaks ties by ascending id; the first-fit schedulers
scan the node ordering as it stood when the call started (created nodes
append to the end of the scan order) unless resort_after_each_allocation
is set, in which case every request scans the current ordering;
feasibility allows TOLERANCE slack per axis.

When no node fits, a node is created from the configured autoscale
template when one is set and the request fits a fresh node; otherwise the
request is rejected with a reason string.

Placement works on a ClusterState, the one mutable cluster state. A
passed node list is converted on entry and updated in place once at the
end (entries replaced with their post-allocation values, created nodes
appended) so callers observe the resulting cluster state; the CLI and
the timeline place into their own ClusterState and report from its columns.

The state keeps the scan orders that calls read live: by node id, and
by compute utilization in each first-fit direction. Each is sorted once,
the first time a scan asks for it, and afterwards every allocation,
release, node creation or removal moves only the touched node's entry
with bisect. A call on an existing state therefore costs O(log N) per
placement plus its scan, not a sort of every node.

A sort-once first-fit call of several requests sorts its own scan order
and builds a segment tree of per-axis headroom over it (Johnson's
O(n log n) first fit, with one maximum per resource axis as in vector
bin packing), so from its first request on every pick finds its node in
O(log N) and decides it with the same exact test. A call that reads the
state's live order scans it linearly: a one-request call, which places
before anything moves, and a resort call, whose order changes on every
pick. The power scheduler examines every node by definition.

Within one sort-once call the scan order only grows by appends, so every
decision's scanned ids are a prefix of one id list: each record holds a
ScanPrefix view of that list, not a copy.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from functools import partial
from itertools import islice
from operator import itemgetter
from typing import Callable, Container, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .model import (
    TOLERANCE,
    GptRequest,
    GptSchedError,
    Node,
    NodeTemplate,
    NotAllocatedError,
    ResourceVector,
    Threshold,
    TupleView,
    UtilizationVector,
    ValidationError,
    echo,
    record,
    trusted,
    validate_unique_ids,
)
from .power import DEFAULT_POWER_POLICY, PowerMode, PowerPolicy
from .profiler import DEFAULT_COEFFICIENTS, ProfilerCoefficients, estimate_demand

# Rejection reasons recorded in decision records.
REASON_NO_FEASIBLE_NODE = "no-feasible-node"
REASON_INFEASIBLE_ON_ANY_NODE = "infeasible-on-any-node"


@record
class SchedulerConfig:
    """Knobs shared by the three schedulers.

    autoscale_template enables node creation when nothing fits.
    resort_after_each_allocation makes the first-fit schedulers scan the
    current utilization ordering for every request; the default scans the
    ordering as it stood when the call started, with created nodes
    appended. record_scans keeps each decision's scanned ids and power
    estimates; with it off both are (), and a scan builds neither.
    """

    threshold: Threshold = Threshold(0.8)
    autoscale_template: Optional[NodeTemplate] = None
    resort_after_each_allocation: bool = False
    power_policy: PowerPolicy = DEFAULT_POWER_POLICY
    record_scans: bool = True


class ScanPrefix(TupleView):
    """The first length ids of a shared id list, as a read-only sequence.

    The decisions of one scan share an id list and each wraps a prefix of
    it, so recording a decision's scanned ids costs O(1). The list may
    grow after a view is made; the view keeps its length, so its contents
    never change. A view nothing shares may wrap a tuple instead. len() is
    O(1); == and hash() are a TupleView's, those of the tuple of the ids.
    """

    __slots__ = ("base", "length")

    def __init__(self, base: Sequence[str], length: int) -> None:
        self.base = base
        self.length = length

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index):  # type: ignore[no-untyped-def]
        if isinstance(index, slice):
            return tuple(self.base[: self.length][index])
        return self.base[range(self.length)[index]]

    def __iter__(self) -> Iterator[str]:
        return islice(self.base, self.length)


@record(slots=True)
class DecisionRecord:
    """Why one request landed where it did.

    scanned holds the node ids in the order they were examined, as a
    read-only sequence equal to the tuple of those ids (a ScanPrefix from
    the schedulers). For the power scheduler, power_estimates holds
    (node_id, delta_watts) for every capacity-feasible candidate in scan
    order. Both are () when the config's record_scans is off. A created
    node carries created_node=True; a rejection carries a reason and no
    chosen node.
    """

    request_id: str
    demand: ResourceVector
    scanned: Sequence[str]
    chosen_node_id: Optional[str]
    pct: Optional[UtilizationVector]
    created_node: bool = False
    reason: Optional[str] = None
    power_estimates: Tuple[Tuple[str, float], ...] = ()


@record(slots=True)
class AllocationOutcome:
    """Result of one scheduling run, derived from its trace by from_trace.

    allocation maps request id to node id in decision order; unallocated
    lists rejected request ids in decision order; trace has one
    DecisionRecord per request in the same order.
    """

    allocation: Dict[str, str]
    unallocated: Tuple[str, ...]
    created_node_ids: Tuple[str, ...]
    trace: Tuple[DecisionRecord, ...]

    @classmethod
    def from_trace(cls, trace: Sequence[DecisionRecord]) -> AllocationOutcome:
        """The outcome the decision records imply: placed requests with
        their nodes, rejected ids and created node ids, in decision order."""

        allocation: Dict[str, str] = {}
        unallocated: List[str] = []
        created: List[str] = []
        for record in trace:
            node_id = record.chosen_node_id
            if node_id is None:
                unallocated.append(record.request_id)
            else:
                allocation[record.request_id] = node_id
                if record.created_node:
                    created.append(node_id)
        return _new_outcome(allocation, tuple(unallocated), tuple(created), tuple(trace))


# Neither record type has checks, so trusted skips only their __init__.
_new_record, _new_outcome = trusted(DecisionRecord), trusted(AllocationOutcome)
_new_pct = trusted(UtilizationVector)


class NodeIdSequence:
    """Source of created-node ids: auto-1, auto-2, ... skipping seeded ids.

    The counter only goes up, so no id is issued twice. A scheduler passes
    the ids its cluster holds as held, and they are skipped too. The
    timeline simulator shares one sequence, seeded with the initial node
    ids, across its scheduling calls so ids stay unique after scale-down.
    """

    def __init__(self, used: Iterable[str] = ()) -> None:
        self._used: Set[str] = set(used)
        self._counter = 1

    def next_id(self, held: Container[str] = ()) -> str:
        """The next auto-k that is neither seeded nor in held."""

        while True:
            candidate = f"auto-{self._counter}"
            self._counter += 1
            if candidate not in self._used and candidate not in held:
                return candidate


class ClusterState(Sequence[Node]):
    """The one mutable cluster state, as parallel per-node arrays.

    The arrays are in node-list order. Beside each node's utilization,
    capacity, power envelope and count of held requests, the state keeps
    an id -> index map, each node's current draw (power.node_power's
    expression under the state's policy, repriced wherever utilization or
    emptiness changes) and node_of, the one record of each held request's
    node. A node is empty when its count is 0, whatever its utilization.
    A request id held by two of the given nodes is refused. Schedulers
    place into it directly; the timeline also releases and removes in
    place, and metrics.build_report reads the columns as they are.

    It also keeps the scan orders that calls read live: id_order() and
    util_order(descending) are sorted once, on first use, then every
    add_node, allocate, release and remove moves only the touched node's
    entry with bisect. Ids are unique, so each order equals a fresh sort.

    As a Sequence it is a live, read-only view of the nodes: len() costs
    O(1), and a Node value is built only when an entry is indexed or
    iterated, its allocated ids read in one pass over node_of.
    """

    __slots__ = (
        "policy", "ids", "index", "templates", "uc", "um", "us", "cc", "cm", "cs",
        "pidle", "pmax", "count", "power", "node_of", "by_id", "by_util",
    )

    def __init__(self, nodes: Sequence[Node], policy: PowerPolicy = DEFAULT_POWER_POLICY) -> None:
        validate_unique_ids((n.id for n in nodes), "node")
        self.policy = policy
        self.ids: List[str] = []
        self.index: Dict[str, int] = {}
        self.templates: List[NodeTemplate] = []
        self.uc: List[float] = []
        self.um: List[float] = []
        self.us: List[float] = []
        self.cc: List[float] = []
        self.cm: List[float] = []
        self.cs: List[float] = []
        self.pidle: List[float] = []
        self.pmax: List[float] = []
        self.count: List[int] = []
        self.power: List[float] = []
        self.node_of: Dict[str, str] = {}
        # The scan orders built so far; util orders are keyed by direction.
        self.by_id: Optional[List[Tuple[str, int]]] = None
        self.by_util: Dict[bool, List[Tuple[float, str, int]]] = {}
        for node in nodes:
            i = self.add_node(node.id, node.template)
            self.uc[i], self.um[i], self.us[i] = node.utilization.as_tuple()
            for rid in node.allocated:
                held = self.node_of.setdefault(rid, node.id)
                if held != node.id:
                    raise ValidationError(f"request {echo(rid)} is allocated on both {echo(held)} and {echo(node.id)}")
            self.count[i] = len(node.allocated)
            self._price(i)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):  # type: ignore[no-untyped-def]
        if isinstance(index, slice):
            return list(self)[index]
        i = range(len(self.ids))[index]
        node_id = self.ids[i]
        return self._node(i, [rid for rid, nid in self.node_of.items() if nid == node_id])

    def __iter__(self) -> Iterator[Node]:
        held: List[List[str]] = [[] for _ in self.ids]
        index = self.index
        for rid, node_id in self.node_of.items():
            held[index[node_id]].append(rid)
        return map(self._node, range(len(self.ids)), held)

    def _node(self, i: int, allocated: List[str]) -> Node:
        return Node(
            id=self.ids[i],
            template=self.templates[i],
            # Unchecked: the arrays hold only finite, non-negative sums of checked pcts.
            utilization=_new_pct(self.uc[i], self.um[i], self.us[i]),
            allocated=frozenset(allocated),
        )

    def check_policy(self, policy: PowerPolicy) -> None:
        """Refuse a policy that differs from the one the state is priced with."""

        if self.policy is not policy and self.policy != policy:
            raise ValidationError(f"cluster state is priced with {self.policy!r}, the config with {policy!r}")

    def _price(self, i: int) -> None:
        if self.policy.off_when_empty and not self.count[i]:
            self.power[i] = 0.0
        else:
            self.power[i] = self.pidle[i] + (self.pmax[i] - self.pidle[i]) * self.uc[i]

    def id_order(self) -> List[Tuple[str, int]]:
        """(id, index) of every node in ascending id order, kept live."""

        if self.by_id is None:
            self.by_id = sorted(zip(self.ids, range(len(self.ids))))
        return self.by_id

    def util_order(self, descending: bool) -> List[Tuple[float, str, int]]:
        """util_entry of every node in ascending order, kept live: by
        descending compute utilization when descending is set, else by
        ascending utilization, ties by ascending id."""

        order = self.by_util.get(descending)
        if order is None:
            order = self.by_util[descending] = sorted(
                [self.util_entry(i, descending) for i in range(len(self.ids))]
            )
        return order

    def util_entry(self, i: int, descending: bool) -> Tuple[float, str, int]:
        """Node i's entry in a utilization order: (key, id, index)."""

        return (-self.uc[i] if descending else self.uc[i], self.ids[i], i)

    def _move(self, i: int, old_uc: float) -> None:
        """Move node i's utilization-order entries from old_uc to its
        current utilization."""

        node_id = self.ids[i]
        for descending, order in self.by_util.items():
            del order[bisect_left(order, (-old_uc if descending else old_uc, node_id))]
            insort(order, self.util_entry(i, descending))

    def add_node(self, node_id: str, template: NodeTemplate) -> int:
        """Append an empty node; returns its index."""

        cap = template.capacity
        i = len(self.ids)
        self.index[node_id] = i
        self.ids.append(node_id)
        self.templates.append(template)
        self.uc.append(0.0)
        self.um.append(0.0)
        self.us.append(0.0)
        self.cc.append(cap.compute)
        self.cm.append(cap.memory_gib)
        self.cs.append(cap.storage_gib)
        self.pidle.append(template.p_idle_w)
        self.pmax.append(template.p_max_w)
        self.count.append(0)
        self.power.append(0.0)
        self._price(i)
        if self.by_id is not None:
            insort(self.by_id, (node_id, i))
        for descending, order in self.by_util.items():
            insort(order, self.util_entry(i, descending))
        return i

    def allocate(self, i: int, request_id: str, demand: ResourceVector) -> UtilizationVector:
        """Place a demand on node i; returns it as percentages of the node."""

        # Built unchecked: the schedulers place only a demand that a scan's exact
        # test or the autoscale check admitted, so each quotient is in [0, limit].
        pct = _new_pct(demand.compute / self.cc[i], demand.memory_gib / self.cm[i], demand.storage_gib / self.cs[i])
        old_uc = self.uc[i]
        self.uc[i] = old_uc + pct.compute
        self.um[i] += pct.memory
        self.us[i] += pct.storage
        if self.by_util:
            self._move(i, old_uc)
        self.node_of[request_id] = self.ids[i]
        self.count[i] += 1
        self._price(i)
        return pct

    def release(self, node_id: str, request_id: str, pct: UtilizationVector) -> bool:
        """model.release_from_node in place, with the same arithmetic and
        errors; returns whether the node is now empty."""

        i = self.index[node_id]
        if self.node_of.get(request_id) != node_id:
            raise NotAllocatedError(f"request {echo(request_id)} not allocated on {echo(node_id)}")
        del self.node_of[request_id]
        self.count[i] -= 1
        old_uc = self.uc[i]
        if self.count[i]:
            self.uc[i] = max(0.0, old_uc - pct.compute)
            self.um[i] = max(0.0, self.um[i] - pct.memory)
            self.us[i] = max(0.0, self.us[i] - pct.storage)
        else:
            self.uc[i] = self.um[i] = self.us[i] = 0.0
        if self.by_util:
            self._move(i, old_uc)
        self._price(i)
        return not self.count[i]

    def remove(self, node_id: str) -> None:
        """Delete a node from every array, keeping the order of the rest."""

        i = self.index[node_id]
        if self.count[i]:
            self.node_of = {rid: nid for rid, nid in self.node_of.items() if nid != node_id}
        for column in (
            self.ids, self.templates, self.uc, self.um, self.us, self.cc, self.cm, self.cs,
            self.pidle, self.pmax, self.count, self.power,
        ):
            del column[i]
        self.index = {nid: j for j, nid in enumerate(self.ids)}
        # Later nodes move down one index; the orders keep their sequence.
        if self.by_id is not None:
            self.by_id[:] = [(nid, j - (j > i)) for nid, j in self.by_id if j != i]
        for order in self.by_util.values():
            order[:] = [(key, nid, j - (j > i)) for key, nid, j in order if j != i]


# What a scan returns: the chosen index or -1, the scanned node ids and the
# power estimates of the candidates (both () when scans are not recorded).
_Pick = Tuple[int, Sequence[str], Tuple[Tuple[str, float], ...]]

_entry_id = itemgetter(1)
_entry_index = itemgetter(2)


class _HeadroomTree:
    """Per-axis maximum headroom over the positions of a first-fit order.

    A segment tree over a scan order that only grows by appends: leaf p
    holds, per resource axis, the absolute headroom (limit + TOLERANCE -
    u) * capacity of the node at position p, each inner node the maximum
    of its children, and unused leaves -inf. A node that passes the exact
    test u + d / c <= limit has headroom of at least d on every axis: the
    extra TOLERANCE adds 1e-9 of a capacity, against rounding of about
    1e-16 of a capacity in either expression. So a subtree whose maximum
    is below the demand on some axis holds no feasible node, and
    candidates() yields every feasible position, in order, plus at most
    the few that fail the exact test only within that margin.
    """

    __slots__ = ("state", "order", "margin", "size", "hc", "hm", "hs")

    def __init__(self, state: ClusterState, order: List[Tuple[float, str, int]], limit: float) -> None:
        self.state = state
        self.order = order
        self.margin = limit + TOLERANCE
        self.size = 1
        self._build()

    def _build(self) -> None:
        while self.size < len(self.order):
            self.size *= 2
        margin, size = self.margin, self.size
        index = list(map(_entry_index, self.order))
        pad = [-math.inf] * (size - len(index))
        levels, state = [], self.state
        for util, cap in ((state.uc, state.cc), (state.um, state.cm), (state.us, state.cs)):
            tree = [-math.inf] * size + [(margin - util[i]) * cap[i] for i in index] + pad
            half = size // 2
            while half:
                children = tree[2 * half : 4 * half]
                tree[half : 2 * half] = map(max, children[::2], children[1::2])
                half //= 2
            levels.append(tree)
        self.hc, self.hm, self.hs = levels

    def refresh(self, pos: int) -> None:
        """Re-read the node at pos after its utilization changed or it was
        appended; the tree is built again, doubled, when pos falls outside it."""

        if pos >= self.size:
            self._build()
            return
        state, margin, hc, hm, hs = self.state, self.margin, self.hc, self.hm, self.hs
        i, j = self.order[pos][2], self.size + pos
        hc[j] = (margin - state.uc[i]) * state.cc[i]
        hm[j] = (margin - state.um[i]) * state.cm[i]
        hs[j] = (margin - state.us[i]) * state.cs[i]
        while j > 1:  # one climb for all three axes, up to the first level none changes
            j >>= 1
            left, right = 2 * j, 2 * j + 1
            c = hc[left] if hc[left] > hc[right] else hc[right]
            m = hm[left] if hm[left] > hm[right] else hm[right]
            s = hs[left] if hs[left] > hs[right] else hs[right]
            if hc[j] == c and hm[j] == m and hs[j] == s:
                break
            hc[j], hm[j], hs[j] = c, m, s

    def candidates(self, dc: float, dm: float, ds: float) -> Iterator[Tuple[int, int]]:
        """(position, node index) of every leaf with headroom for the
        demand on all three axes, in scan order."""

        hc, hm, hs, size, order = self.hc, self.hm, self.hs, self.size, self.order
        k = 1
        while True:
            if hc[k] >= dc and hm[k] >= dm and hs[k] >= ds:
                if k < size:
                    k *= 2
                    continue
                yield k - size, order[k - size][2]
            # Next subtree in order: climb while k is a right child.
            while k & 1:
                k >>= 1
            if not k:
                return
            k += 1


class _FirstFit:
    """Scan order and choice rule of the two threshold schedulers.

    A call picks its scan once. A sort-once call of several requests sorts
    its own order at call start, appends the nodes it creates, and from
    its first pick a _HeadroomTree over that order yields the candidates.
    Any other call reads the state's live utilization order and scans it
    linearly: a resort call, so each request sees the current ordering,
    and a one-request call, before anything is placed. Either way each
    candidate is decided by the one exact test.

    An own order only grows, so the scanned ids of a sort-once call's
    decisions are prefixes of one id list, extended only as far as a pick
    has reached. A linear pick wraps a fresh tuple of its own.
    """

    def __init__(self, state: ClusterState, config: SchedulerConfig, picks: int, descending: bool) -> None:
        self.state = state
        self.descending = descending
        self.own = not config.resort_after_each_allocation and picks > 1
        self.limit = config.threshold.value + TOLERANCE
        self.tree: Optional[_HeadroomTree] = None
        if self.own:
            self.order = sorted([state.util_entry(i, descending) for i in range(len(state))])
            self.tree = _HeadroomTree(state, self.order, self.limit)
        else:
            self.order = state.util_order(descending)
        # Position of the node the last pick chose or created: the skeleton
        # allocates onto it before the next pick, which refreshes its leaf.
        self.last = -1
        self.ids: List[str] = []
        self.record = config.record_scans

    def pick(self, dc: float, dm: float, ds: float) -> _Pick:
        state, limit = self.state, self.limit
        uc, um, us = state.uc, state.um, state.us
        cc, cm, cs = state.cc, state.cm, state.cs
        for pos, i in self._candidates(dc, dm, ds):
            if (
                uc[i] + dc / cc[i] <= limit
                and um[i] + dm / cm[i] <= limit
                and us[i] + ds / cs[i] <= limit
            ):
                self.last = pos
                return i, self._scanned(pos + 1), ()
        self.last = -1
        return -1, self._scanned(len(self.order)), ()

    def _candidates(self, dc: float, dm: float, ds: float) -> Iterable[Tuple[int, int]]:
        if not self.own:
            return enumerate(map(_entry_index, self.order))
        if self.last >= 0:
            self.tree.refresh(self.last)
        return self.tree.candidates(dc, dm, ds)

    def _scanned(self, length: int) -> Sequence[str]:
        """The first length ids of the scan order, () when scans are not
        recorded. Every view of a sort-once call shares self.ids; a linear
        pick's view wraps an exact-size tuple, the smallest base for a view
        that nothing else shares."""

        if not self.record:
            return ()
        if not self.own:
            return ScanPrefix(tuple(map(_entry_id, self.order[:length])), length)
        ids = self.ids
        if len(ids) < length:
            ids.extend(map(_entry_id, self.order[len(ids) : length]))
        return ScanPrefix(ids, length)

    def created(self, i: int) -> None:
        # add_node put the node into the state's orders; an own order needs it too.
        if self.own:
            self.order.append(self.state.util_entry(i, self.descending))
            self.last = len(self.order) - 1


class _MinPowerDelta:
    """Scan order and choice rule of the power scheduler: the state's live
    id order."""

    def __init__(self, state: ClusterState, config: SchedulerConfig, picks: int) -> None:
        self.state = state
        # The state's policy, which _schedule holds equal to the config's.
        self.absolute = state.policy.mode is PowerMode.ABSOLUTE_AFTER
        self.limit = 1.0 + TOLERANCE
        self.id_order = state.id_order()
        self.record = config.record_scans
        # The scan covers every node, so the scanned ids only change when a
        # node is created; share one list between creations.
        self.scanned: Optional[ScanPrefix] = None

    def pick(self, dc: float, dm: float, ds: float) -> _Pick:
        state, limit, absolute = self.state, self.limit, self.absolute
        uc, um, us = state.uc, state.um, state.us
        cc, cm, cs = state.cc, state.cm, state.cs
        pidle, pmax, power = state.pidle, state.pmax, state.power
        record = self.record
        best = -1
        best_delta = float("inf")
        estimates: List[Tuple[str, float]] = []
        for node_id, i in self.id_order:
            if (
                uc[i] + dc / cc[i] > limit
                or um[i] + dm / cm[i] > limit
                or us[i] + ds / cs[i] > limit
            ):
                continue
            after = pidle[i] + (pmax[i] - pidle[i]) * (uc[i] + dc / cc[i])
            # power[i] is the node's draw before the allocation: 0 W when
            # the policy powers an empty node off.
            delta = after if absolute else after - power[i]
            if record:
                estimates.append((node_id, delta))
            if delta < best_delta:
                best_delta = delta
                best = i
        if not record:
            return best, (), ()
        if self.scanned is None:
            ids = [entry[0] for entry in self.id_order]
            self.scanned = ScanPrefix(ids, len(ids))
        return best, self.scanned, tuple(estimates)

    def created(self, i: int) -> None:
        # add_node already put the node into the live id order.
        self.scanned = None


def _schedule(
    queue: Iterable[GptRequest],
    nodes: Union[List[Node], ClusterState],
    config: SchedulerConfig,
    coeffs: ProfilerCoefficients,
    id_sequence: Optional[NodeIdSequence],
    make_scan: Callable[[ClusterState, SchedulerConfig, int], Union[_FirstFit, _MinPowerDelta]],
) -> AllocationOutcome:
    """The placement skeleton shared by the three schedulers; it reads the queue once.

    A node list is converted to a ClusterState on entry and written back
    once at the end; a ClusterState is placed into directly, and refused
    unless it is priced with a policy equal to config.power_policy.
    """

    state = nodes if isinstance(nodes, ClusterState) else ClusterState(nodes, config.power_policy)
    state.check_policy(config.power_policy)
    # Ids and demands, not requests; the first profiling refusal waits for the whole queue and its id checks.
    placements: List[Tuple[str, Optional[ResourceVector]]] = []
    refusal: Optional[GptSchedError] = None
    for request in queue:
        try:
            placements.append((request.id, estimate_demand(request, coeffs)))
        except GptSchedError as exc:
            placements.append((request.id, None))
            refusal = refusal or exc
    if len(placements) > 1:  # one request has no id to repeat and no order to sort
        validate_unique_ids((request_id for request_id, _ in placements), "request")
    for request_id, _ in placements:
        if request_id in state.node_of:
            raise ValidationError(f"request {echo(request_id)} is already allocated on a node")
    if refusal is not None:
        raise refusal
    if len(placements) > 1:
        placements.sort(key=lambda p: (-p[1].compute, p[0]))  # by descending compute demand, ties by id
    seq = id_sequence if id_sequence is not None else NodeIdSequence()
    scan = make_scan(state, config, len(placements))
    template = config.autoscale_template

    trace: List[DecisionRecord] = []

    for request_id, demand in placements:
        dc, dm, ds = demand.compute, demand.memory_gib, demand.storage_gib
        chosen, scanned, estimates = scan.pick(dc, dm, ds)
        fresh = False
        if chosen < 0 and template is not None:
            cap, limit = template.capacity, scan.limit
            if dc / cap.compute <= limit and dm / cap.memory_gib <= limit and ds / cap.storage_gib <= limit:
                chosen = state.add_node(seq.next_id(state.index), template)
                scan.created(chosen)
                fresh = True
        if chosen < 0:
            reason = REASON_NO_FEASIBLE_NODE if template is None else REASON_INFEASIBLE_ON_ANY_NODE
            trace.append(_new_record(request_id, demand, scanned, None, None, False, reason, ()))
            continue
        pct = state.allocate(chosen, request_id, demand)
        node_id = state.ids[chosen]
        trace.append(_new_record(request_id, demand, scanned, node_id, pct, fresh, None, estimates))

    if state is not nodes:
        nodes[:] = state
    return AllocationOutcome.from_trace(trace)


def schedule_max_util(
    queue: Iterable[GptRequest],
    nodes: Union[List[Node], ClusterState],
    config: SchedulerConfig,
    *,
    coeffs: ProfilerCoefficients = DEFAULT_COEFFICIENTS,
    id_sequence: Optional[NodeIdSequence] = None,
) -> AllocationOutcome:
    """Consolidating first fit: fullest feasible node wins.

    Nodes are scanned in descending compute utilization order (ties by
    ascending id) and each request lands on the first node that stays
    within the threshold on all three axes. Raises ValidationError on
    duplicate ids and UnprofilableRequestError when a request has neither
    an explicit demand nor a model size. Mutates nodes in place.
    """

    return _schedule(queue, nodes, config, coeffs, id_sequence, partial(_FirstFit, descending=True))


def schedule_load_balance(
    queue: Iterable[GptRequest],
    nodes: Union[List[Node], ClusterState],
    config: SchedulerConfig,
    *,
    coeffs: ProfilerCoefficients = DEFAULT_COEFFICIENTS,
    id_sequence: Optional[NodeIdSequence] = None,
) -> AllocationOutcome:
    """Spreading first fit: emptiest feasible node wins.

    Same contract as schedule_max_util with the node ordering reversed
    (ascending compute utilization, ties by ascending id).
    """

    return _schedule(queue, nodes, config, coeffs, id_sequence, partial(_FirstFit, descending=False))


def schedule_power_efficient(
    queue: Iterable[GptRequest],
    nodes: Union[List[Node], ClusterState],
    config: SchedulerConfig,
    *,
    coeffs: ProfilerCoefficients = DEFAULT_COEFFICIENTS,
    id_sequence: Optional[NodeIdSequence] = None,
) -> AllocationOutcome:
    """Minimum-power-delta placement.

    Every request scans all nodes in ascending id order. Nodes whose
    remaining full capacity cannot hold the request are skipped; among the
    rest, the node with the strictly smallest power delta wins (ties keep
    the first, i.e. smallest id). The threshold is not consulted. The
    power delta is priced by config.power_policy: by default waking an
    empty node costs its idle draw, so warm nodes are preferred.

    Autoscaling is an opt-in extension: with no autoscale_template a
    request that fits no node is rejected. Decision records include the
    per-candidate power estimates unless config.record_scans is off.
    Mutates nodes in place.
    """

    return _schedule(queue, nodes, config, coeffs, id_sequence, _MinPowerDelta)


ALGORITHMS: Dict[str, Callable[..., AllocationOutcome]] = {
    "max-util": schedule_max_util,
    "load-balance": schedule_load_balance,
    "power": schedule_power_efficient,
}
