"""Config parsing: defaults, groups, autoscale, and strict validation."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from gptsched import (
    ConfigError,
    PowerMode,
    ResourceVector,
    default_config,
    load_cluster_config,
)
from gptsched.config import DEFAULT_TEMPLATE, parse_config


def _load(document: dict):
    return load_cluster_config(io.StringIO(json.dumps(document)))


def test_empty_document_yields_defaults() -> None:
    config = default_config()
    assert [n.id for n in config.initial_nodes] == ["node-1", "node-2", "node-3", "node-4"]
    for n in config.initial_nodes:
        assert n.template == DEFAULT_TEMPLATE
        assert n.is_empty
    assert config.threshold.value == 0.8
    assert config.autoscale_template == DEFAULT_TEMPLATE
    assert config.power_policy.mode is PowerMode.INCREMENTAL
    assert config.power_policy.off_when_empty
    assert config.adaptor.scale_down_grace_s == 300.0
    assert config.adaptor.retain_min_nodes == 0
    assert config.generator.request_count == 1000
    assert config.generator.seed == 42
    assert not config.scheduler.resort_after_each_allocation


def test_default_capacity_values() -> None:
    assert DEFAULT_TEMPLATE.capacity == ResourceVector(
        compute=1000.0, memory_gib=512.0, storage_gib=2000.0
    )
    assert DEFAULT_TEMPLATE.p_idle_w == 100.0
    assert DEFAULT_TEMPLATE.p_max_w == 400.0


def test_cluster_groups_number_nodes_serially() -> None:
    config = _load(
        {
            "cluster": [
                {"count": 2, "capacity": {"compute": 500}},
                {"count": 1, "p_idle_w": 50, "p_max_w": 150},
            ]
        }
    )
    assert [n.id for n in config.initial_nodes] == ["node-1", "node-2", "node-3"]
    assert config.initial_nodes[0].capacity.compute == 500.0
    # Unset capacity axes fall back to the defaults.
    assert config.initial_nodes[0].capacity.memory_gib == 512.0
    assert config.initial_nodes[2].template.p_idle_w == 50.0
    # The autoscale template defaults to the FIRST group's template.
    assert config.autoscale_template == config.initial_nodes[0].template


def test_resident_utilization_creates_resident_allocation() -> None:
    config = _load(
        {"cluster": [{"count": 1, "resident_utilization": {"compute": 0.5, "memory": 0.2}}]}
    )
    n = config.initial_nodes[0]
    assert n.utilization.as_tuple() == (0.5, 0.2, 0.0)
    assert n.allocated == frozenset({"resident-node-1"})
    assert not n.is_empty


def test_autoscale_disabled_and_custom_template() -> None:
    assert _load({"autoscale": {"enabled": False}}).autoscale_template is None
    config = _load({"autoscale": {"capacity": {"compute": 250}, "p_idle_w": 10, "p_max_w": 20}})
    template = config.autoscale_template
    assert template is not None
    assert template.capacity.compute == 250.0
    assert template.capacity.memory_gib == 512.0
    assert template.p_idle_w == 10.0


def test_scheduler_power_and_adaptor_sections() -> None:
    config = _load(
        {
            "scheduler": {"threshold": 0.6, "resort_after_each_allocation": True},
            "power": {"mode": "absolute-after", "off_when_empty": False},
            "adaptor": {"scale_down_grace_s": 10, "retain_min_nodes": 2},
        }
    )
    assert config.threshold.value == 0.6
    assert config.scheduler.resort_after_each_allocation
    assert config.power_policy.mode is PowerMode.ABSOLUTE_AFTER
    assert not config.power_policy.off_when_empty
    assert config.adaptor.scale_down_grace_s == 10.0
    assert config.adaptor.retain_min_nodes == 2


def test_profiler_and_generator_sections() -> None:
    config = _load(
        {
            "profiler": {"flops_per_param_token": 0.004},
            "generator": {
                "request_count": 10,
                "seed": 7,
                "model_size_choices_b": [[7, 1.0]],
                "prompt_tokens": {"mu": 4.0, "sigma": 0.5},
                "arrival_rate_per_s": 2.5,
                "duration": {"mu": 3.0, "sigma": 0.4},
            },
        }
    )
    assert config.coefficients.flops_per_param_token == 0.004
    assert config.coefficients.weight_mem_gib_per_b == 2.0
    spec = config.generator
    assert spec.request_count == 10 and spec.seed == 7
    assert spec.model_size_choices_b == ((7.0, 1.0),)
    assert spec.prompt_tokens_dist.mu == 4.0
    assert spec.output_tokens_dist.mu == 5.0
    assert spec.arrival_rate_per_s == 2.5
    assert spec.duration_dist is not None and spec.duration_dist.mu == 3.0


@pytest.mark.parametrize(
    "document, fragment",
    [
        ({"clutser": []}, "config: unknown keys"),
        ({"cluster": []}, "cluster: must be a non-empty list"),
        ({"cluster": [{"count": 0}]}, "cluster[0].count: must be >= 1"),
        ({"cluster": [{"size": 3}]}, "cluster[0]: unknown keys"),
        ({"cluster": [{"capacity": {"compute": 0}}]}, "capacity axes must be > 0"),
        ({"cluster": [{"p_idle_w": 500}]}, "cluster[0]"),
        ({"cluster": [{"resident_utilization": {"compute": 1.5}}]}, "must be in [0, 1]"),
        ({"scheduler": {"threshold": 0}}, "scheduler.threshold"),
        ({"scheduler": {"threshold": 1.2}}, "scheduler.threshold"),
        ({"power": {"mode": "quadratic"}}, "power.mode"),
        ({"profiler": {"flops_per_param_token": -1}}, "profiler"),
        ({"adaptor": {"retain_min_nodes": -1}}, "adaptor"),
        ({"generator": {"request_count": 0}}, "generator"),
        ({"generator": {"model_size_choices_b": [[7, 0.5]]}}, "sum to 1"),
        ({"generator": {"prompt_tokens": {"mu": 1.0}}}, "needs both mu and sigma"),
        ({"generator": {"duration": {"mu": 1.0, "sigma": -1}}}, "generator.duration"),
    ],
)
def test_invalid_documents_name_the_field(document: dict, fragment: str) -> None:
    with pytest.raises(ConfigError) as excinfo:
        _load(document)
    assert fragment in str(excinfo.value)


def test_p_max_below_p_idle_rejected() -> None:
    with pytest.raises(ConfigError, match="cluster\\[0\\]"):
        _load({"cluster": [{"p_idle_w": 300, "p_max_w": 200}]})


def test_invalid_json_text() -> None:
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_cluster_config(io.StringIO("{nope"))


def test_non_object_document_rejected() -> None:
    with pytest.raises(ConfigError, match="config: must be a JSON object"):
        parse_config([])  # type: ignore[arg-type]


def test_load_from_path(tmp_path) -> None:
    path = tmp_path / "config.json"
    path.write_text('{"cluster": [{"count": 1}]}', encoding="utf-8")
    assert len(load_cluster_config(path).initial_nodes) == 1
    assert len(load_cluster_config(str(path)).initial_nodes) == 1


def _readme_config_block() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Cluster configuration", 1)[1]
    return section.split("```json\n", 1)[1].split("```", 1)[0]


def test_readme_defaults_document_parses_to_the_defaults() -> None:
    assert parse_config(json.loads(_readme_config_block())) == default_config()


def test_null_sections_and_keys_are_unset() -> None:
    document = json.loads(_readme_config_block())
    nulled = {
        section: {key: None for key in value} if isinstance(value, dict) else None
        for section, value in document.items()
    }
    assert parse_config(nulled) == default_config()
    assert parse_config(dict.fromkeys(document)) == default_config()
    # A null inside a group leaves that key at its default too.
    config = parse_config({"cluster": [{"count": 2, "capacity": {"compute": None}, "p_max_w": None}]})
    assert [n.template for n in config.initial_nodes] == [DEFAULT_TEMPLATE] * 2


def test_disabled_autoscale_section_is_checked_as_an_enabled_one() -> None:
    with pytest.raises(ConfigError, match=r"^autoscale\.capacity: "):
        _load({"autoscale": {"enabled": False, "capacity": {"compute": -1}}})
    with pytest.raises(ConfigError, match=r"^autoscale: "):
        _load({"autoscale": {"enabled": False, "p_idle_w": 500}})
    assert _load({"autoscale": {"enabled": False, "p_idle_w": 50}}).autoscale_template is None
