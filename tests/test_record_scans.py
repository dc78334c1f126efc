"""SchedulerConfig.record_scans: a run that keeps no scans decides the same.

With record_scans off every decision record keeps its request id,
demand, chosen node, pct, created flag and reason, and its scanned ids
and power estimates are (); the outcome and every timeline result are
those of the full run. The CLI keeps scans only for the schedule JSON
document, the one output that writes them, and the config file cannot
set the switch.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptsched import ALGORITHMS, AdaptorPolicy, ConfigError, SchedulerConfig, cli, run_batch, run_timeline
from gptsched.config import parse_config
from gptsched.scheduling import ClusterState

from helpers import node, request
from test_cli import TIMED_TRACE
from test_conservation_modes import _configs, _demand, _nodes


def _kept(record) -> tuple:
    return (
        record.request_id, record.demand, record.chosen_node_id, record.pct, record.created_node, record.reason,
    )


def _assert_same_decisions(full, bare) -> None:
    assert [_kept(record) for record in bare.trace] == [_kept(record) for record in full.trace]
    assert all(record.scanned == () and record.power_estimates == () for record in bare.trace)
    assert bare.allocation == full.allocation
    assert bare.unallocated == full.unallocated
    assert bare.created_node_ids == full.created_node_ids


@settings(max_examples=150, deadline=None)
@given(algorithm=st.sampled_from(sorted(ALGORITHMS)), config=_configs(), via_state=st.booleans(), data=st.data())
def test_batch_without_scans_makes_the_same_decisions(algorithm, config, via_state, data) -> None:
    nodes = data.draw(_nodes(residents=True))
    threshold = config.threshold.value
    queue = [
        request(f"r{j}", *data.draw(_demand(threshold)))
        for j in range(data.draw(st.integers(min_value=1, max_value=8)))
    ]
    bare_config = replace(config, record_scans=False)
    clusters = []
    outcomes = []
    for run_config in (config, bare_config):
        cluster = ClusterState(list(nodes), config.power_policy) if via_state else list(nodes)
        outcomes.append(ALGORITHMS[algorithm](queue, cluster, run_config))
        clusters.append(list(cluster))
    full, bare = outcomes
    _assert_same_decisions(full, bare)
    assert clusters[1] == clusters[0]


@settings(max_examples=100, deadline=None)
@given(algorithm=st.sampled_from(sorted(ALGORITHMS)), config=_configs(), data=st.data())
def test_timeline_without_scans_is_the_same_timeline(algorithm, config, data) -> None:
    initial = data.draw(_nodes(residents=False))
    threshold = config.threshold.value
    workload = [
        request(
            f"r{j:02d}",
            *data.draw(_demand(threshold)),
            arrival_s=data.draw(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(min_value=0.0, max_value=20.0)),
            duration_s=data.draw(st.sampled_from([1.0, 1.5]) | st.floats(min_value=0.5, max_value=10.0)),
        )
        for j in range(data.draw(st.integers(min_value=1, max_value=8)))
    ]
    adaptor = AdaptorPolicy(
        scale_down_grace_s=data.draw(st.sampled_from([0.0, 1.0, 5.0])),
        retain_min_nodes=data.draw(st.integers(min_value=0, max_value=3)),
    )
    interval = data.draw(st.sampled_from([1.0, 2.5]))
    full = run_timeline(workload, initial, algorithm, config, adaptor, interval)
    bare = run_timeline(workload, initial, algorithm, replace(config, record_scans=False), adaptor, interval)
    _assert_same_decisions(full.outcome, bare.outcome)
    assert bare.events == full.events
    assert bare.snapshots == full.snapshots
    assert bare.power_steps == full.power_steps
    assert bare.report == full.report


def test_power_batch_without_scans_holds_no_estimates() -> None:
    # Every one of 2000 nodes fits each of 200 requests: the full run keeps
    # 400k (node_id, delta) pairs.
    queue = [request(f"r{j:03d}", 0.1) for j in range(200)]
    peaks = {}
    for record_scans in (True, False):
        nodes = [node(f"n{i:04d}") for i in range(2000)]
        config = SchedulerConfig(record_scans=record_scans)
        tracemalloc.start()
        try:
            outcome, _ = run_batch(queue, nodes, "power", config)
            _, peaks[record_scans] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        estimates = sum(len(record.power_estimates) for record in outcome.trace)
        assert estimates == (400_000 if record_scans else 0)
        del outcome
    assert peaks[False] < peaks[True] / 10, peaks


@pytest.fixture()
def passed_configs(monkeypatch):
    seen = []

    def recording(run):
        def call(workload, nodes, algorithm_id, config, *args, **kwargs):
            seen.append(config)
            return run(workload, nodes, algorithm_id, config, *args, **kwargs)

        return call

    monkeypatch.setattr(cli, "run_batch", recording(cli.run_batch))
    monkeypatch.setattr(cli, "run_timeline", recording(cli.run_timeline))
    return seen


@pytest.mark.parametrize(
    "command, record_scans, calls",
    [
        (["schedule", "--algorithm", "power", "--format", "json"], True, 1),
        (["schedule", "--algorithm", "power", "--format", "csv"], False, 1),
        (["simulate", "--algorithm", "power"], False, 1),
        (["simulate", "--algorithm", "max-util", "--format", "csv"], False, 1),
        (["compare"], False, 3),
        (["compare", "--format", "json"], False, 3),
    ],
)
def test_cli_keeps_scans_only_for_the_schedule_json_document(
    tmp_path, passed_configs, command, record_scans, calls
) -> None:
    trace = tmp_path / "timed.jsonl"
    trace.write_text(TIMED_TRACE, encoding="utf-8")
    assert cli.main([*command, "--workload", str(trace), "--out", str(tmp_path / "out")]) == 0
    assert [config.record_scans for config in passed_configs] == [record_scans] * calls


def test_config_file_cannot_set_record_scans() -> None:
    with pytest.raises(ConfigError, match="record_scans"):
        parse_config({"scheduler": {"record_scans": False}})
