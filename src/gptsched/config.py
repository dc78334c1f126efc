"""Cluster and experiment configuration: one JSON document.

Schema (every key optional; defaults in parentheses):

    {
      "cluster": [                      # node groups ([one default group])
        {"count": 4,                    # nodes in this group (1)
         "capacity": {"compute": 1000, "memory_gib": 512, "storage_gib": 2000},
         "p_idle_w": 100, "p_max_w": 400,
         "resident_utilization": {"compute": 0, "memory": 0, "storage": 0}}
      ],
      "autoscale": {"enabled": true,    # template defaults to the first group
                    "capacity": {...}, "p_idle_w": ..., "p_max_w": ...},
      "scheduler": {"threshold": 0.8, "resort_after_each_allocation": false},
      "power": {"mode": "incremental",  # or "absolute-after"
                "off_when_empty": true},
      "profiler": {"flops_per_param_token": 0.002, "weight_mem_gib_per_b": 2.0,
                   "kv_mem_gib_per_ktoken_per_b": 0.02, "storage_gib_per_b": 2.0},
      "adaptor": {"scale_down_grace_s": 300, "retain_min_nodes": 0},
      "generator": {"request_count": 1000, "seed": 42,
                    "model_size_choices_b": [[7, 0.6], [13, 0.3], [70, 0.1]],
                    "prompt_tokens": {"mu": 5.5, "sigma": 0.8},
                    "output_tokens": {"mu": 5.0, "sigma": 1.0},
                    "arrival_rate_per_s": null, "duration": null}
    }

A key or section that is missing or null is unset and keeps its default.
Numbers must be finite as floats: NaN, the infinities and integers too
large for a float are refused.

Nodes are named node-1, node-2, ... across groups in order. A non-zero
resident_utilization models pre-existing load: the node starts with that
utilization and a single synthetic resident allocation named
"resident-<node-id>" so the allocated-set/utilization invariant holds.

Unknown keys anywhere raise ConfigError naming the offending path, as do
constraint violations (e.g. "scheduler.threshold: threshold must be in
(0, 1]").
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, TypeVar, Union

from .model import (
    ZERO_UTILIZATION,
    ConfigError,
    Node,
    NodeTemplate,
    ResourceVector,
    Threshold,
    UtilizationVector,
    ValidationError,
    echo,
    record,
    replace,
)
from .power import PowerMode, PowerPolicy
from .profiler import ProfilerCoefficients
from .reportio import TextStream, open_text
from .scheduling import SchedulerConfig
from .simulator import AdaptorPolicy
from .workload import GeneratorSpec, LognormalSpec, decode_json, read_int, read_number

DEFAULT_CAPACITY = ResourceVector(compute=1000.0, memory_gib=512.0, storage_gib=2000.0)
DEFAULT_TEMPLATE = NodeTemplate(capacity=DEFAULT_CAPACITY, p_idle_w=100.0, p_max_w=400.0)
DEFAULT_NODE_COUNT = 4
# The most nodes all cluster groups together may declare, refused before
# any node is built.
MAX_CLUSTER_NODES = 100_000

_T = TypeVar("_T")


@record
class ExperimentConfig:
    """Validated configuration: cluster, scheduler, profiler, adaptor, generator."""

    initial_nodes: Tuple[Node, ...]
    scheduler: SchedulerConfig
    coefficients: ProfilerCoefficients
    adaptor: AdaptorPolicy
    generator: GeneratorSpec

    @property
    def autoscale_template(self) -> Optional[NodeTemplate]:
        return self.scheduler.autoscale_template

    @property
    def power_policy(self) -> PowerPolicy:
        return self.scheduler.power_policy

    @property
    def threshold(self) -> Threshold:
        return self.scheduler.threshold


# A reader turns one set JSON value, found at a path, into its parsed form.
# A ValidationError it raises is reported under that path. A nested object's
# reader is the table of its own keys' readers.
Reader = Union[Callable[[object, str], Any], Mapping[str, Any]]


def _fields(raw: object, path: str, readers: Mapping[str, Reader]) -> Dict[str, Any]:
    """The set keys of the JSON object raw, each passed through its reader.

    A missing or null key is unset and left out; an unknown key is refused.
    """

    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    unknown = set(raw) - set(readers)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {echo(sorted(unknown))} (allowed: {sorted(readers)})")
    prefix = "" if path == "config" else f"{path}."  # sections are named bare
    parsed: Dict[str, Any] = {}
    for key, read in readers.items():
        if raw.get(key) is not None:
            try:
                if isinstance(read, Mapping):
                    parsed[key] = _fields(raw[key], prefix + key, read)
                else:
                    parsed[key] = read(raw[key], prefix + key)
            except ValidationError as exc:
                raise ConfigError(f"{prefix}{key}: {exc}") from None
    return parsed


def _build(make: Callable[..., _T], path: str, kwargs: Dict[str, Any]) -> _T:
    """make(**kwargs), a ValidationError reported under path."""

    try:
        return make(**kwargs)
    except ValidationError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _number(value: object, path: str) -> float:
    return read_number(value)


def _integer(value: object, path: str) -> int:
    return read_int(value)


def _boolean(value: object, path: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"must be true or false, got {echo(value)}")
    return value


def _fraction(value: object, path: str) -> float:
    number = read_number(value)
    if not 0.0 <= number <= 1.0:
        raise ValidationError(f"must be in [0, 1], got {number!r}")
    return number


def _power_mode(value: object, path: str) -> PowerMode:
    try:
        return PowerMode(value)
    except ValueError:
        raise ValidationError(f"must be one of {[m.value for m in PowerMode]}, got {echo(value)}") from None


def _lognormal(value: object, path: str) -> LognormalSpec:
    parsed = _fields(value, path, {"mu": _number, "sigma": _number})
    if len(parsed) != 2:
        raise ConfigError(f"{path}: needs both mu and sigma")
    return LognormalSpec(**parsed)


def _size_choices(value: object, path: str) -> Tuple[Tuple[float, float], ...]:
    if not isinstance(value, list):
        raise ValidationError("must be a list of [size, prob] pairs")
    pairs: List[Tuple[float, float]] = []
    for index, pair in enumerate(value):
        try:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValidationError("must be a [size, prob] pair")
            pairs.append((read_number(pair[0]), read_number(pair[1])))
        except ValidationError as exc:
            raise ConfigError(f"{path}[{index}]: {exc}") from None
    return tuple(pairs)


_TEMPLATE: Dict[str, Reader] = {
    "capacity": dict.fromkeys(("compute", "memory_gib", "storage_gib"), _number),
    "p_idle_w": _number,
    "p_max_w": _number,
}
_GROUP: Dict[str, Reader] = {
    "count": _integer,
    **_TEMPLATE,
    "resident_utilization": lambda value, path: UtilizationVector(
        **_fields(value, path, dict.fromkeys(("compute", "memory", "storage"), _fraction))
    ),
}


def _template(base: NodeTemplate, parsed: Dict[str, Any], path: str) -> NodeTemplate:
    """base with the set capacity axes and power keys replaced."""

    capacity = _build(partial(replace, base.capacity), f"{path}.capacity", parsed.pop("capacity", {}))
    return _build(partial(replace, base, capacity=capacity), path, parsed)


def _cluster(value: object, path: str) -> Tuple[Node, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: must be a non-empty list of node groups")
    nodes: List[Node] = []
    for index, group in enumerate(value):
        parsed = _fields(group, f"{path}[{index}]", _GROUP)
        count = parsed.pop("count", 1)
        if count <= 0:
            raise ConfigError(f"{path}[{index}].count: must be >= 1, got {count!r}")
        if len(nodes) + count > MAX_CLUSTER_NODES:
            raise ConfigError(
                f"{path}[{index}].count: {count!r} takes the cluster past {MAX_CLUSTER_NODES} nodes"
            )
        resident = parsed.pop("resident_utilization", ZERO_UTILIZATION)
        template = _template(DEFAULT_TEMPLATE, parsed, f"{path}[{index}]")
        for _ in range(count):
            node_id = f"node-{len(nodes) + 1}"
            held = frozenset() if resident.is_zero() else frozenset({f"resident-{node_id}"})
            nodes.append(Node(node_id, template, resident if held else ZERO_UTILIZATION, held))
    return tuple(nodes)


_SECTIONS: Dict[str, Reader] = {
    "cluster": _cluster,
    "autoscale": {"enabled": _boolean, **_TEMPLATE},
    "scheduler": {
        "threshold": lambda value, path: Threshold(read_number(value)),
        "resort_after_each_allocation": _boolean,
    },
    "power": {"mode": _power_mode, "off_when_empty": _boolean},
    "profiler": dict.fromkeys(ProfilerCoefficients.__match_args__, _number),
    "adaptor": {"scale_down_grace_s": _number, "retain_min_nodes": _integer},
    "generator": {
        "request_count": _integer,
        "seed": _integer,
        "model_size_choices_b": _size_choices,
        "prompt_tokens": _lognormal,
        "output_tokens": _lognormal,
        "arrival_rate_per_s": _number,
        "duration": _lognormal,
    },
}


def parse_config(document: Dict[str, object]) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""

    sections = _fields(document, "config", _SECTIONS)
    nodes = sections.get("cluster") or _cluster([{"count": DEFAULT_NODE_COUNT}], "cluster")
    autoscale = sections.get("autoscale", {})
    enabled = autoscale.pop("enabled", True)
    template = _template(nodes[0].template, autoscale, "autoscale")  # checked even when disabled
    scheduler = SchedulerConfig(
        autoscale_template=template if enabled else None,
        power_policy=PowerPolicy(**sections.get("power", {})),
        **sections.get("scheduler", {}),
    )
    generator = {  # each lognormal key sets GeneratorSpec's <key>_dist field
        f"{key}_dist" if isinstance(value, LognormalSpec) else key: value
        for key, value in sections.get("generator", {}).items()
    }
    return ExperimentConfig(
        initial_nodes=nodes,
        scheduler=scheduler,
        coefficients=_build(ProfilerCoefficients, "profiler", sections.get("profiler", {})),
        adaptor=_build(AdaptorPolicy, "adaptor", sections.get("adaptor", {})),
        generator=_build(GeneratorSpec, "generator", generator),
    )


def default_config() -> ExperimentConfig:
    """The configuration an empty document produces."""

    return parse_config({})


def load_cluster_config(source: TextStream) -> ExperimentConfig:
    """Read and validate a JSON config from a path or text stream.

    Raises ConfigError for text that is not UTF-8 or not JSON, unknown keys
    or any field constraint violation; the message names the field path.
    """

    with open_text(source) as stream:
        try:
            text = stream.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not valid UTF-8: {exc}") from None
    try:
        document = decode_json(text)
    except ValueError as exc:  # bad JSON, an integer past the digit limit, or nesting too deep
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(document)
