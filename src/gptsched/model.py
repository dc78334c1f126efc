"""Core domain types for GPT inference scheduling.

A node has a fixed capacity along three resource axes (compute units,
memory GiB, storage GiB), a linear power envelope, a fractional
utilization vector, and the set of request ids currently allocated to it.
Requests describe an inference task either by an explicit resource demand
or by model/token attributes that a profiler can turn into one.

All value types are frozen records (``record``: a frozen dataclass built
without importing dataclasses) so they can be compared, hashed where
needed, and shared safely. Each checks its values when built, coercing a
value or wording the refusal; GptRequest first tries the common case
(every number already an exact float, or an exact int for token counts,
in range: one type test and one chained comparison per field). The
schedulers and the timeline mutate one scheduling.ClusterState in place.
``release_from_node`` returns a new Node value; the naive reference the
tests compare against releases with it, and the benchmark's tracer times
it through the simulator's re-export.
The types built per request (the two vectors, GptRequest, DecisionRecord,
AllocationOutcome and SimEvent) are slotted. ``trusted(cls)`` builds one
without its checks, only where the values are known to pass them; each
call site says why.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Any, Callable, Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

# Absolute slack used by every feasibility comparison in the package.
TOLERANCE = 1e-9
_INF = math.inf


class GptSchedError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GptSchedError):
    """A value violates a documented invariant or precondition."""


class InvalidCapacityError(ValidationError):
    """A node capacity axis is zero or negative."""


class ConfigError(GptSchedError):
    """A configuration document or selector is invalid."""


class NotAllocatedError(GptSchedError):
    """A request id is not allocated on the node it is being released from."""


def _require_finite(name: str, value: float) -> float:
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValidationError(f"{name} must be finite, got {echo(value)}")
    return float(value)


def _require_non_negative(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value < 0.0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return value


_TRUSTED: Dict[type, Callable[..., Any]] = {}
# A record's methods, as dataclasses generates them for a frozen class. {sets} stores each field
# past the frozen __setattr__; _written is the class as written, before slots.
_METHODS = """
def __init__(self, {params}):{sets}{post_init}
def __eq__(self, other):
 if other.__class__ is self.__class__: return ({own}) == ({other})
 return NotImplemented
def __hash__(self): return hash(({own}))
def __repr__(self): return f"{{self.__class__.__qualname__}}({shown})"
def __setattr__(self, name, value):
 if type(self) is _written or name in _names:
  from dataclasses import FrozenInstanceError
  raise FrozenInstanceError(f"cannot assign to field {{name!r}}")
 super(_written, self).__setattr__(name, value)
def __delattr__(self, name):
 if type(self) is _written or name in _names:
  from dataclasses import FrozenInstanceError
  raise FrozenInstanceError(f"cannot delete field {{name!r}}")
 super(_written, self).__delattr__(name)
"""
_SLOTTED_METHODS = """
def __getstate__(self): return [{own}]
def __setstate__(self, state):
 {args}, = state{sets}
def _trusted({args}):
 self = _new(_cls){sets}
 return self
"""


def record(cls: Optional[type] = None, *, slots: bool = False) -> Any:
    """@dataclass(frozen=True, slots=slots) without importing dataclasses: the fields are cls's annotations,
    its class attributes their defaults, and _METHODS are generated in one exec. A slotted record is
    rebuilt with __slots__ (no __dict__, no __weakref__); trusted(cls) builds it skipping __init__."""

    if cls is None:
        return lambda cls: record(cls, slots=slots)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    env = {"_written": cls, "_names": names, "_new": object.__new__, "_setattr": object.__setattr__,
           **{f"_d_{n}": value for n, value in defaults.items()}}
    if slots:
        body = {k: v for k, v in cls.__dict__.items() if k not in (*names, "__dict__", "__weakref__")}
        cls = type(cls)(cls.__name__, cls.__bases__, {**body, "__slots__": names, "__qualname__": cls.__qualname__})
        env.update({f"_set_{n}": cls.__dict__[n].__set__ for n in names})
    env["_cls"] = cls
    source = (_METHODS + (_SLOTTED_METHODS if slots else "")).format(
        params=", ".join(f"{n}=_d_{n}" if n in defaults else n for n in names), args=", ".join(names),
        sets="".join(f"\n _set_{n}(self, {n})" if slots else f"\n _setattr(self, {n!r}, {n})" for n in names),
        post_init="\n self.__post_init__()" if hasattr(cls, "__post_init__") else "",
        own="".join(f"self.{n}," for n in names), other="".join(f"other.{n}," for n in names),
        shown=", ".join(f"{n}={{self.{n}!r}}" for n in names))
    methods: Dict[str, Any] = {}
    exec(source, env, methods)
    if slots:
        _TRUSTED[cls] = methods.pop("_trusted")
    methods["__init__"].__annotations__ = {**cls.__annotations__, "return": None}
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__match_args__, cls.__replace__, cls.__dataclass_fields__ = names, replace, _DataclassFields(defaults)
    return cls


class _DataclassFields(dict):
    """A record's defaults, standing for its __dataclass_fields__ until first read. Then dataclasses
    builds them, and __dataclass_params__, for a twin with the same annotations and defaults."""

    def __get__(self, obj: object, cls: Any) -> Any:
        import dataclasses

        spec = [(n, cls.__annotations__[n], dataclasses.field(default=self.get(n, dataclasses.MISSING)))
                for n in cls.__match_args__]
        twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=True, slots="__slots__" in cls.__dict__)
        cls.__dataclass_fields__, cls.__dataclass_params__ = twin.__dataclass_fields__, twin.__dataclass_params__
        return twin.__dataclass_fields__


def replace(obj: Any, /, **changes: Any) -> Any:
    """A copy of the record obj with the given fields changed, as dataclasses.replace makes it."""

    return obj.__class__(**{**{n: getattr(obj, n) for n in obj.__match_args__}, **changes})


def trusted(cls: type) -> Callable[..., Any]:
    """The positional constructor of the slotted record cls: it sets each slot, skipping __init__
    and __post_init__, for values known to pass cls's checks."""

    return _TRUSTED[cls]


class TupleView(Sequence[Any]):
    """A read-only sequence equal and hash-equal, both ways, to the tuple of
    its items. A subclass gives __len__, __iter__ and __getitem__."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, TupleView)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self)!r})"


def plain_amounts(a: object, b: object, c: object) -> bool:
    # Amounts that ResourceVector and UtilizationVector keep as given.
    return type(a) is type(b) is type(c) is float and 0.0 <= a < _INF and 0.0 <= b < _INF and 0.0 <= c < _INF


class TaskKind(str, Enum):
    """Coarse category of an inference request."""

    TRANSLATION = "translation"
    SUMMARIZATION = "summarization"
    QA = "qa"
    CHAT = "chat"
    OTHER = "other"


@record(slots=True)
class ResourceVector:
    """Absolute amounts along the three resource axes.

    compute is in abstract compute units, memory_gib and storage_gib in GiB.
    Components must be finite and non-negative.
    """

    compute: float
    memory_gib: float
    storage_gib: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "compute", _require_non_negative("compute", self.compute))
        object.__setattr__(self, "memory_gib", _require_non_negative("memory_gib", self.memory_gib))
        object.__setattr__(self, "storage_gib", _require_non_negative("storage_gib", self.storage_gib))

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.compute, self.memory_gib, self.storage_gib)


@record(slots=True)
class UtilizationVector:
    """Fractions of a node's capacity along the three resource axes.

    Node utilizations stay in [0, 1] by construction of the schedulers, but
    the same type carries demand percentages, which may exceed 1 when a
    request is larger than a node. Components must be finite and >= 0.
    """

    compute: float = 0.0
    memory: float = 0.0
    storage: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "compute", _require_non_negative("compute", self.compute))
        object.__setattr__(self, "memory", _require_non_negative("memory", self.memory))
        object.__setattr__(self, "storage", _require_non_negative("storage", self.storage))

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.compute, self.memory, self.storage)

    def is_zero(self, tol: float = TOLERANCE) -> bool:
        return self.compute <= tol and self.memory <= tol and self.storage <= tol


ZERO_UTILIZATION = UtilizationVector(0.0, 0.0, 0.0)


@record
class NodeTemplate:
    """Immutable description of a node type: capacity plus power envelope.

    p_idle_w is drawn whenever the node is powered on, p_max_w at full
    compute utilization. Requires positive capacities and
    0 <= p_idle_w <= p_max_w.
    """

    capacity: ResourceVector
    p_idle_w: float
    p_max_w: float

    def __post_init__(self) -> None:
        cap = self.capacity
        if cap.compute <= 0.0 or cap.memory_gib <= 0.0 or cap.storage_gib <= 0.0:
            raise InvalidCapacityError(f"capacity axes must be > 0, got {cap.as_tuple()}")
        object.__setattr__(self, "p_idle_w", _require_non_negative("p_idle_w", self.p_idle_w))
        object.__setattr__(self, "p_max_w", _require_finite("p_max_w", self.p_max_w))
        if self.p_max_w < self.p_idle_w:
            raise ValidationError(
                f"p_max_w ({self.p_max_w!r}) must be >= p_idle_w ({self.p_idle_w!r})"
            )


@record
class Node:
    """A provisioned node: identity, template, utilization, allocated set."""

    id: str
    template: NodeTemplate
    utilization: UtilizationVector = ZERO_UTILIZATION
    allocated: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("node id must be a non-empty string")
        object.__setattr__(self, "allocated", frozenset(self.allocated))

    @property
    def capacity(self) -> ResourceVector:
        return self.template.capacity

    @property
    def is_empty(self) -> bool:
        return not self.allocated


def plain_request_values(kind: Any, params: Any, prompt: Any, output: Any, arrival: Any, duration: Any,
                         deadline: Any) -> bool:
    """Whether GptRequest keeps these values (all but id) as given."""

    return (
        type(kind) is TaskKind and type(params) is float and 0.0 <= params < _INF
        and type(prompt) is int and 0 <= prompt <= 2**53 and type(output) is int and 0 <= output <= 2**53
        and (arrival is None or type(arrival) is float and 0.0 <= arrival < _INF)
        and (duration is None or type(duration) is float and 0.0 < duration < _INF)
        and (deadline is None or type(deadline) is float and 0.0 < deadline < _INF)
    )


@record(slots=True)
class GptRequest:
    """One GPT inference request.

    Either explicit_demand is given, or model_params_b must be positive so
    a profiler can estimate the demand. The timing fields are optional and
    only needed by the timeline simulator.
    """

    id: str
    task_kind: TaskKind
    model_params_b: float = 0.0
    prompt_tokens: int = 0
    output_tokens: int = 0
    explicit_demand: Optional[ResourceVector] = None
    arrival_s: Optional[float] = None
    duration_s: Optional[float] = None
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("request id must be a non-empty string")
        if plain_request_values(self.task_kind, self.model_params_b, self.prompt_tokens, self.output_tokens,
                                self.arrival_s, self.duration_s, self.deadline_s):
            return
        if not isinstance(self.task_kind, TaskKind):
            raise ValidationError(f"task_kind must be a TaskKind, got {echo(self.task_kind)}")
        object.__setattr__(
            self, "model_params_b", _require_non_negative("model_params_b", self.model_params_b)
        )
        for name in ("prompt_tokens", "output_tokens"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValidationError(f"{name} must be a non-negative int, got {echo(value)}")
            _require_finite(name, value)
        if self.arrival_s is not None:
            object.__setattr__(self, "arrival_s", _require_non_negative("arrival_s", self.arrival_s))
        if self.duration_s is not None:
            duration = _require_finite("duration_s", self.duration_s)
            if duration <= 0.0:
                raise ValidationError(f"duration_s must be > 0, got {duration!r}")
            object.__setattr__(self, "duration_s", duration)
        if self.deadline_s is not None:
            deadline = _require_finite("deadline_s", self.deadline_s)
            if deadline <= 0.0:
                raise ValidationError(f"deadline_s must be > 0, got {deadline!r}")
            object.__setattr__(self, "deadline_s", deadline)


@record
class Threshold:
    """Per-axis utilization cap used by the threshold-based schedulers.

    value must lie in (0, 1]. Feasibility checks allow TOLERANCE slack, so
    a request landing exactly on the threshold is accepted.
    """

    value: float

    def __post_init__(self) -> None:
        value = _require_finite("threshold", self.value)
        if not 0.0 < value <= 1.0:
            raise ValidationError(f"threshold must be in (0, 1], got {value!r}")
        object.__setattr__(self, "value", value)


def release_from_node(node: Node, request_id: str, pct: UtilizationVector) -> Node:
    """Return a copy of node with request_id released.

    pct must be the percentages the request was allocated with. When the
    last request leaves, utilization snaps to exact zeros so float residue
    never accumulates. Raises NotAllocatedError if the id is not on the node.
    """

    if request_id not in node.allocated:
        raise NotAllocatedError(f"request {echo(request_id)} not allocated on {echo(node.id)}")
    remaining = node.allocated - {request_id}
    if not remaining:
        util = ZERO_UTILIZATION
    else:
        util = UtilizationVector(
            compute=max(0.0, node.utilization.compute - pct.compute),
            memory=max(0.0, node.utilization.memory - pct.memory),
            storage=max(0.0, node.utilization.storage - pct.storage),
        )
    return replace(node, utilization=util, allocated=remaining)


# The most characters of an outside value that a refusal repeats.
_ECHO_CHARS = 1000


def echo(value: object) -> str:
    """repr(value) for a refusal message: at most its first 1,000
    characters, followed by how many were cut."""

    try:
        text = repr(value)
    except ValueError:  # an int past the interpreter's digit limit, or a value holding one
        return f"<{type(value).__name__} too long to show>"
    if len(text) <= _ECHO_CHARS:
        return text
    return f"{text[:_ECHO_CHARS]}... ({len(text) - _ECHO_CHARS} more characters)"


def validate_unique_ids(items: Iterable[str], what: str) -> None:
    """Raise ValidationError if the iterable yields a repeated id."""

    seen: Dict[str, None] = {}
    for item in items:
        if item in seen:
            raise ValidationError(f"duplicate {what} id {echo(item)}")
        seen[item] = None
