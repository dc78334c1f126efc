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

Nodes are named node-1, node-2, ... across groups in order. A non-zero
resident_utilization models pre-existing load: the node starts with that
utilization and a single synthetic resident allocation named
"resident-<node-id>" so the allocated-set/utilization invariant holds.

Unknown keys anywhere raise ConfigError naming the offending path, as do
constraint violations (e.g. "scheduler.threshold: threshold must be in
(0, 1]").
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .model import (
    ConfigError,
    Node,
    NodeTemplate,
    ResourceVector,
    Threshold,
    UtilizationVector,
    ValidationError,
)
from .power import PowerMode, PowerPolicy
from .profiler import ProfilerCoefficients
from .scheduling import SchedulerConfig
from .simulator import AdaptorPolicy
from .workload import GeneratorSpec, LognormalSpec, TextStream, open_text

DEFAULT_CAPACITY = ResourceVector(compute=1000.0, memory_gib=512.0, storage_gib=2000.0)
DEFAULT_TEMPLATE = NodeTemplate(capacity=DEFAULT_CAPACITY, p_idle_w=100.0, p_max_w=400.0)
DEFAULT_NODE_COUNT = 4


@dataclass(frozen=True)
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

    def fresh_nodes(self) -> List[Node]:
        """A new mutable copy of the initial cluster for one run."""

        return list(self.initial_nodes)


def _expect_object(value: object, path: str) -> Dict[str, object]:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    return value


def _check_keys(obj: Dict[str, object], allowed: Tuple[str, ...], path: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})")


def _get_number(obj: Dict[str, object], key: str, path: str, default: float) -> float:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{path}.{key}: must be a finite number, got {value!r}")
    return float(value)


def _get_int(obj: Dict[str, object], key: str, path: str, default: int) -> int:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: must be an integer, got {value!r}")
    return value


def _get_bool(obj: Dict[str, object], key: str, path: str, default: bool) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: must be true or false, got {value!r}")
    return value


def _parse_capacity(obj: Dict[str, object], path: str, default: ResourceVector) -> ResourceVector:
    raw = obj.get("capacity")
    if raw is None:
        return default
    capacity = _expect_object(raw, f"{path}.capacity")
    _check_keys(capacity, ("compute", "memory_gib", "storage_gib"), f"{path}.capacity")
    try:
        return ResourceVector(
            compute=_get_number(capacity, "compute", f"{path}.capacity", default.compute),
            memory_gib=_get_number(capacity, "memory_gib", f"{path}.capacity", default.memory_gib),
            storage_gib=_get_number(capacity, "storage_gib", f"{path}.capacity", default.storage_gib),
        )
    except ValidationError as exc:
        raise ConfigError(f"{path}.capacity: {exc}") from None


def _parse_template(obj: Dict[str, object], path: str, default: NodeTemplate) -> NodeTemplate:
    try:
        return NodeTemplate(
            capacity=_parse_capacity(obj, path, default.capacity),
            p_idle_w=_get_number(obj, "p_idle_w", path, default.p_idle_w),
            p_max_w=_get_number(obj, "p_max_w", path, default.p_max_w),
        )
    except ValidationError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_resident(obj: Dict[str, object], path: str) -> UtilizationVector:
    raw = obj.get("resident_utilization")
    if raw is None:
        return UtilizationVector(0.0, 0.0, 0.0)
    resident = _expect_object(raw, f"{path}.resident_utilization")
    _check_keys(resident, ("compute", "memory", "storage"), f"{path}.resident_utilization")
    values = {
        key: _get_number(resident, key, f"{path}.resident_utilization", 0.0)
        for key in ("compute", "memory", "storage")
    }
    for key, value in values.items():
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{path}.resident_utilization.{key}: must be in [0, 1], got {value!r}")
    return UtilizationVector(**values)


def _parse_cluster(raw: object) -> Tuple[Tuple[Node, ...], NodeTemplate]:
    """Build the node list; returns it plus the first group's template."""

    if raw is None:
        groups: List[Dict[str, object]] = [{"count": DEFAULT_NODE_COUNT}]
    else:
        if not isinstance(raw, list) or not raw:
            raise ConfigError("cluster: must be a non-empty list of node groups")
        groups = [_expect_object(group, f"cluster[{i}]") for i, group in enumerate(raw)]

    nodes: List[Node] = []
    first_template: Optional[NodeTemplate] = None
    serial = 1
    for index, group in enumerate(groups):
        path = f"cluster[{index}]"
        _check_keys(
            group, ("count", "capacity", "p_idle_w", "p_max_w", "resident_utilization"), path
        )
        count = _get_int(group, "count", path, 1)
        if count <= 0:
            raise ConfigError(f"{path}.count: must be >= 1, got {count!r}")
        template = _parse_template(group, path, DEFAULT_TEMPLATE)
        if first_template is None:
            first_template = template
        resident = _parse_resident(group, path)
        for _ in range(count):
            node_id = f"node-{serial}"
            serial += 1
            if resident.is_zero():
                nodes.append(Node(id=node_id, template=template))
            else:
                nodes.append(
                    Node(
                        id=node_id,
                        template=template,
                        utilization=resident,
                        allocated=frozenset({f"resident-{node_id}"}),
                    )
                )
    assert first_template is not None
    return tuple(nodes), first_template


def _parse_autoscale(raw: object, first_template: NodeTemplate) -> Optional[NodeTemplate]:
    if raw is None:
        return first_template
    obj = _expect_object(raw, "autoscale")
    _check_keys(obj, ("enabled", "capacity", "p_idle_w", "p_max_w"), "autoscale")
    if not _get_bool(obj, "enabled", "autoscale", True):
        return None
    return _parse_template(obj, "autoscale", first_template)


def _parse_scheduler(
    raw: object, autoscale_template: Optional[NodeTemplate], power_policy: PowerPolicy
) -> SchedulerConfig:
    obj = _expect_object(raw, "scheduler") if raw is not None else {}
    _check_keys(obj, ("threshold", "resort_after_each_allocation"), "scheduler")
    try:
        threshold = Threshold(_get_number(obj, "threshold", "scheduler", 0.8))
    except ValidationError as exc:
        raise ConfigError(f"scheduler.threshold: {exc}") from None
    return SchedulerConfig(
        threshold=threshold,
        autoscale_template=autoscale_template,
        resort_after_each_allocation=_get_bool(obj, "resort_after_each_allocation", "scheduler", False),
        power_policy=power_policy,
    )


def _parse_power(raw: object) -> PowerPolicy:
    obj = _expect_object(raw, "power") if raw is not None else {}
    _check_keys(obj, ("mode", "off_when_empty"), "power")
    mode_value = obj.get("mode", PowerMode.INCREMENTAL.value)
    try:
        mode = PowerMode(mode_value)
    except ValueError:
        raise ConfigError(
            f"power.mode: must be one of {[m.value for m in PowerMode]}, got {mode_value!r}"
        ) from None
    return PowerPolicy(mode=mode, off_when_empty=_get_bool(obj, "off_when_empty", "power", True))


def _parse_profiler(raw: object) -> ProfilerCoefficients:
    obj = _expect_object(raw, "profiler") if raw is not None else {}
    defaults = ProfilerCoefficients()
    fields = (
        "flops_per_param_token",
        "weight_mem_gib_per_b",
        "kv_mem_gib_per_ktoken_per_b",
        "storage_gib_per_b",
    )
    _check_keys(obj, fields, "profiler")
    try:
        return ProfilerCoefficients(
            **{name: _get_number(obj, name, "profiler", getattr(defaults, name)) for name in fields}
        )
    except ValidationError as exc:
        raise ConfigError(f"profiler: {exc}") from None


def _parse_adaptor(raw: object) -> AdaptorPolicy:
    obj = _expect_object(raw, "adaptor") if raw is not None else {}
    _check_keys(obj, ("scale_down_grace_s", "retain_min_nodes"), "adaptor")
    try:
        return AdaptorPolicy(
            scale_down_grace_s=_get_number(obj, "scale_down_grace_s", "adaptor", 300.0),
            retain_min_nodes=_get_int(obj, "retain_min_nodes", "adaptor", 0),
        )
    except ValidationError as exc:
        raise ConfigError(f"adaptor: {exc}") from None


def _parse_lognormal(
    obj: Dict[str, object], key: str, path: str, default: Optional[LognormalSpec]
) -> Optional[LognormalSpec]:
    raw = obj.get(key)
    if raw is None:
        return default
    spec = _expect_object(raw, f"{path}.{key}")
    _check_keys(spec, ("mu", "sigma"), f"{path}.{key}")
    if "mu" not in spec or "sigma" not in spec:
        raise ConfigError(f"{path}.{key}: needs both mu and sigma")
    try:
        return LognormalSpec(
            mu=_get_number(spec, "mu", f"{path}.{key}", 0.0),
            sigma=_get_number(spec, "sigma", f"{path}.{key}", 0.0),
        )
    except ValidationError as exc:
        raise ConfigError(f"{path}.{key}: {exc}") from None


def _parse_generator(raw: object) -> GeneratorSpec:
    obj = _expect_object(raw, "generator") if raw is not None else {}
    _check_keys(
        obj,
        (
            "request_count",
            "seed",
            "model_size_choices_b",
            "prompt_tokens",
            "output_tokens",
            "arrival_rate_per_s",
            "duration",
        ),
        "generator",
    )
    defaults = GeneratorSpec()
    choices_raw = obj.get("model_size_choices_b")
    if choices_raw is None:
        choices = defaults.model_size_choices_b
    else:
        if not isinstance(choices_raw, list):
            raise ConfigError("generator.model_size_choices_b: must be a list of [size, prob] pairs")
        pairs: List[Tuple[float, float]] = []
        for i, pair in enumerate(choices_raw):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"generator.model_size_choices_b[{i}]: must be a [size, prob] pair")
            size, prob = pair
            for value in (size, prob):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ConfigError(
                        f"generator.model_size_choices_b[{i}]: entries must be numbers, got {value!r}"
                    )
            pairs.append((float(size), float(prob)))
        choices = tuple(pairs)

    rate_raw = obj.get("arrival_rate_per_s")
    rate: Optional[float]
    if rate_raw is None:
        rate = None
    elif isinstance(rate_raw, bool) or not isinstance(rate_raw, (int, float)):
        raise ConfigError(f"generator.arrival_rate_per_s: must be a number, got {rate_raw!r}")
    else:
        rate = float(rate_raw)

    prompt = _parse_lognormal(obj, "prompt_tokens", "generator", defaults.prompt_tokens_dist)
    output = _parse_lognormal(obj, "output_tokens", "generator", defaults.output_tokens_dist)
    duration = _parse_lognormal(obj, "duration", "generator", None)
    assert prompt is not None and output is not None
    try:
        return GeneratorSpec(
            request_count=_get_int(obj, "request_count", "generator", defaults.request_count),
            seed=_get_int(obj, "seed", "generator", defaults.seed),
            model_size_choices_b=choices,
            prompt_tokens_dist=prompt,
            output_tokens_dist=output,
            arrival_rate_per_s=rate,
            duration_dist=duration,
        )
    except ValidationError as exc:
        raise ConfigError(f"generator: {exc}") from None


_TOP_KEYS = ("cluster", "autoscale", "scheduler", "power", "profiler", "adaptor", "generator")


def parse_config(document: Dict[str, object]) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""

    obj = _expect_object(document, "config")
    _check_keys(obj, _TOP_KEYS, "config")
    nodes, first_template = _parse_cluster(obj.get("cluster"))
    autoscale_template = _parse_autoscale(obj.get("autoscale"), first_template)
    power_policy = _parse_power(obj.get("power"))
    scheduler = _parse_scheduler(obj.get("scheduler"), autoscale_template, power_policy)
    return ExperimentConfig(
        initial_nodes=nodes,
        scheduler=scheduler,
        coefficients=_parse_profiler(obj.get("profiler")),
        adaptor=_parse_adaptor(obj.get("adaptor")),
        generator=_parse_generator(obj.get("generator")),
    )


def default_config() -> ExperimentConfig:
    """The configuration an empty document produces."""

    return parse_config({})


def load_cluster_config(source: TextStream) -> ExperimentConfig:
    """Read and validate a JSON config from a path or text stream.

    Raises ConfigError for unreadable JSON, unknown keys or any field
    constraint violation; the message names the offending field path.
    """

    with open_text(source, "r") as stream:
        text = stream.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(document)
