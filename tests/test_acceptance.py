"""Acceptance suite: the package's end-to-end behavioral guarantees.

Nine properties, one test each, with stated tolerances and time bounds:

 1. the optimized schedulers match the naive reference transcription
    exactly on 500 small random instances, in under 5 s
 2. threshold safety on 100 seeded 1000-request default-config workloads
    with autoscaling, in under 10 s
 3. every power-scheduler decision is re-verified as the minimum power
    delta among capacity-feasible candidates at decision time, exactly
 4. objective direction: consolidation yields median mean utilization at
    least that of spreading, and spreading yields median utilization
    stddev at most that of consolidation, over 100 seeds
 5. metrics match a direct-summation oracle within 1e-12, with exact
    anchor values
 6. utilization equals the sum of allocated percentages within 1e-9 after
    batch runs and at every timeline event boundary
 7. the compare command is byte-for-byte deterministic
 8. the hand-derived single-request timeline reproduces its snapshot
    series and energy within 1e-9 relative
 9. the compare command finishes 10,000 requests over 100 nodes in
    under 5 s

Each test ends with one `PASS n:` line (visible under pytest -s); the
pytest verdict itself is the authoritative signal.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from dataclasses import replace
from typing import Dict, List, Tuple

from gptsched import (
    AdaptorPolicy,
    GeneratorSpec,
    LognormalSpec,
    Node,
    PowerMode,
    PowerPolicy,
    SchedulerConfig,
    SimEvent,
    Threshold,
    default_config,
    estimate_demand,
    generate_synthetic,
    mean_compute_utilization,
    run_timeline,
    schedule_load_balance,
    schedule_max_util,
    schedule_power_efficient,
    utilization_stddev,
    write_trace,
)
from gptsched.cli import main as cli_main
from gptsched.model import TOLERANCE
from gptsched.scheduling import (
    REASON_INFEASIBLE_ON_ANY_NODE,
    REASON_NO_FEASIBLE_NODE,
    AllocationOutcome,
)
from gptsched.simulator import SnapshotRow

from helpers import node, random_instance, request, template
from naive_reference import ref_load_balance, ref_max_util, ref_power_efficient


def test_01_schedulers_match_naive_reference() -> None:
    rng = random.Random(20240817)
    start = time.perf_counter()
    for _ in range(500):
        requests, nodes, threshold, autoscale, policy = random_instance(rng)
        config = SchedulerConfig(
            threshold=Threshold(threshold), autoscale_template=autoscale, power_policy=policy
        )

        got = schedule_max_util(requests, list(nodes), config)
        want = ref_max_util(requests, list(nodes), threshold, autoscale)
        assert got.allocation == want["allocation"]
        assert set(got.unallocated) == set(want["unallocated"])
        assert list(got.created_node_ids) == want["created"]

        got = schedule_load_balance(requests, list(nodes), config)
        want = ref_load_balance(requests, list(nodes), threshold, autoscale)
        assert got.allocation == want["allocation"]
        assert set(got.unallocated) == set(want["unallocated"])
        assert list(got.created_node_ids) == want["created"]

        got = schedule_power_efficient(requests, list(nodes), config)
        want = ref_power_efficient(requests, list(nodes), policy, autoscale)
        assert got.allocation == want["allocation"]
        assert set(got.unallocated) == set(want["unallocated"])
        assert list(got.created_node_ids) == want["created"]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle battle took {elapsed:.2f}s"
    print(f"PASS 1: 500 instances x 3 algorithms match the naive reference ({elapsed:.2f}s)")


# Criteria 2 and 4 share one expensive computation: 100 seeded
# default-config workloads run through both threshold schedulers.
_SEEDED_CACHE: Dict[str, object] = {}


def _seeded_default_runs() -> Dict[str, object]:
    if _SEEDED_CACHE:
        return _SEEDED_CACHE
    config = default_config()
    workloads = [generate_synthetic(replace(config.generator, seed=seed)) for seed in range(100)]
    threshold = config.threshold.value

    worst_excess = -math.inf
    rows: List[Dict[str, Tuple[float, float]]] = []
    start = time.perf_counter()
    for workload in workloads:
        entry: Dict[str, Tuple[float, float]] = {}
        for name, scheduler in (("max-util", schedule_max_util), ("load-balance", schedule_load_balance)):
            nodes = list(config.initial_nodes)
            scheduler(workload, nodes, config.scheduler)
            for n in nodes:
                for axis in n.utilization.as_tuple():
                    worst_excess = max(worst_excess, axis - threshold)
            entry[name] = (mean_compute_utilization(nodes), utilization_stddev(nodes))
        rows.append(entry)
    elapsed = time.perf_counter() - start
    _SEEDED_CACHE.update({"rows": rows, "elapsed": elapsed, "worst_excess": worst_excess})
    return _SEEDED_CACHE


def test_02_threshold_safety_at_scale() -> None:
    data = _seeded_default_runs()
    assert data["worst_excess"] <= 1e-9, f"threshold exceeded by {data['worst_excess']:.3e}"
    assert data["elapsed"] < 10.0, f"200 scheduling runs took {data['elapsed']:.2f}s"
    print(
        "PASS 2: no axis above threshold+1e-9 over 100x1000 requests "
        f"(worst excess {data['worst_excess']:.2e}, {data['elapsed']:.2f}s)"
    )


def _verify_power_trace(
    initial_nodes: List[Node],
    outcome: AllocationOutcome,
    policy: PowerPolicy,
    autoscale_template,
) -> int:
    """Replay a power-scheduler trace, re-deriving every decision.

    Keeps a shadow cluster updated with the recorded percentages (the same
    floats the scheduler added), so re-computed power deltas are exact.
    """

    absolute = policy.mode is PowerMode.ABSOLUTE_AFTER
    off_empty = policy.off_when_empty
    cap_limit = 1.0 + TOLERANCE
    state: Dict[str, dict] = {
        n.id: {
            "uc": n.utilization.compute,
            "um": n.utilization.memory,
            "us": n.utilization.storage,
            "cc": n.capacity.compute,
            "cm": n.capacity.memory_gib,
            "cs": n.capacity.storage_gib,
            "pidle": n.template.p_idle_w,
            "pmax": n.template.p_max_w,
            "empty": n.is_empty,
        }
        for n in initial_nodes
    }

    decisions = 0
    for record in outcome.trace:
        decisions += 1
        dc, dm, ds = record.demand.compute, record.demand.memory_gib, record.demand.storage_gib
        assert record.scanned == tuple(sorted(state))
        candidates: List[Tuple[str, float]] = []
        best_id = None
        best_delta = math.inf
        for node_id in sorted(state):
            s = state[node_id]
            if (
                s["uc"] + dc / s["cc"] > cap_limit
                or s["um"] + dm / s["cm"] > cap_limit
                or s["us"] + ds / s["cs"] > cap_limit
            ):
                continue
            slope = s["pmax"] - s["pidle"]
            after = s["pidle"] + slope * (s["uc"] + dc / s["cc"])
            if absolute or (off_empty and s["empty"]):
                delta = after
            else:
                delta = after - (s["pidle"] + slope * s["uc"])
            candidates.append((node_id, delta))
            if delta < best_delta:
                best_delta = delta
                best_id = node_id

        if record.chosen_node_id is not None and not record.created_node:
            assert record.chosen_node_id == best_id, (
                f"{record.request_id}: chose {record.chosen_node_id}, oracle says {best_id}"
            )
            assert record.power_estimates == tuple(candidates)
            s = state[record.chosen_node_id]
            s["uc"] += record.pct.compute
            s["um"] += record.pct.memory
            s["us"] += record.pct.storage
            s["empty"] = False
        elif record.created_node:
            assert not candidates and autoscale_template is not None
            cap = autoscale_template.capacity
            state[record.chosen_node_id] = {
                "uc": record.pct.compute,
                "um": record.pct.memory,
                "us": record.pct.storage,
                "cc": cap.compute,
                "cm": cap.memory_gib,
                "cs": cap.storage_gib,
                "pidle": autoscale_template.p_idle_w,
                "pmax": autoscale_template.p_max_w,
                "empty": False,
            }
        else:
            assert not candidates
            expected = (
                REASON_NO_FEASIBLE_NODE
                if autoscale_template is None
                else REASON_INFEASIBLE_ON_ANY_NODE
            )
            assert record.reason == expected
    return decisions


def test_03_power_decisions_are_greedy_optimal() -> None:
    total = 0
    for seed in range(100):
        spec = GeneratorSpec(request_count=40, seed=seed)
        workload = generate_synthetic(spec)
        tpl = template(compute=600.0, memory=256.0, storage=1200.0, p_idle=80.0, p_max=320.0)
        initial = [
            node("n1", tpl),
            node("n2", tpl, util=(0.3, 0.1, 0.05)),
            node("n3", template(compute=400.0, memory=128.0, storage=800.0)),
        ]
        policy = PowerPolicy(
            mode=PowerMode.ABSOLUTE_AFTER if seed % 2 else PowerMode.INCREMENTAL,
            off_when_empty=seed % 3 != 0,
        )
        autoscale = tpl if seed % 4 == 0 else None
        config = SchedulerConfig(
            threshold=Threshold(0.8), autoscale_template=autoscale, power_policy=policy
        )
        mutated = list(initial)
        outcome = schedule_power_efficient(workload, mutated, config)
        total += _verify_power_trace(initial, outcome, policy, autoscale)
    assert total == 100 * 40
    print(f"PASS 3: all {total} power decisions re-verified as minimum power delta")


def test_04_objective_direction_across_seeds() -> None:
    rows = _seeded_default_runs()["rows"]
    mean_max = statistics.median(entry["max-util"][0] for entry in rows)
    mean_lb = statistics.median(entry["load-balance"][0] for entry in rows)
    sd_max = statistics.median(entry["max-util"][1] for entry in rows)
    sd_lb = statistics.median(entry["load-balance"][1] for entry in rows)
    assert mean_max >= mean_lb
    assert sd_lb <= sd_max
    print(
        f"PASS 4: median mean util {mean_max:.4f} >= {mean_lb:.4f} and "
        f"median stddev {sd_lb:.4f} <= {sd_max:.4f} over 100 seeds"
    )


def test_05_metrics_match_direct_summation() -> None:
    rng = random.Random(12)
    checked = 0
    for trial in range(21):
        size = 1000 if trial == 0 else rng.randint(1, 50)
        utils = [rng.random() for _ in range(size)]
        nodes = [node(f"n{i:04d}", template(), util=(u, 0.0, 0.0)) for i, u in enumerate(utils)]
        mean_oracle = math.fsum(utils) / size
        sd_oracle = math.sqrt(math.fsum((u - mean_oracle) ** 2 for u in utils) / size)
        assert abs(mean_compute_utilization(nodes) - mean_oracle) <= 1e-12
        assert abs(utilization_stddev(nodes) - sd_oracle) <= 1e-12
        checked += size

    pair = [node("a", template(), util=(0.0, 0.0, 0.0)), node("b", template(), util=(1.0, 0.0, 0.0))]
    assert utilization_stddev(pair) == 0.5
    flat = [node(f"n{i}", template(), util=(0.37, 0.0, 0.0)) for i in range(7)]
    assert utilization_stddev(flat) == 0.0
    print(f"PASS 5: mean/stddev within 1e-12 of direct summation over {checked} utils, anchors exact")


def _conservation_gap(nodes, demands) -> float:
    worst = 0.0
    for n in nodes:
        expect = [0.0, 0.0, 0.0]
        for rid in n.allocated:
            d = demands[rid]
            expect[0] += d.compute / n.capacity.compute
            expect[1] += d.memory_gib / n.capacity.memory_gib
            expect[2] += d.storage_gib / n.capacity.storage_gib
        got = n.utilization.as_tuple()
        worst = max(worst, *(abs(g - e) for g, e in zip(got, expect)))
    return worst


def test_06_accounting_conservation() -> None:
    worst = 0.0
    config = default_config()
    schedulers = (schedule_max_util, schedule_load_balance, schedule_power_efficient)
    for seed in range(10):
        workload = generate_synthetic(replace(config.generator, seed=seed, request_count=200))
        demands = {r.id: estimate_demand(r) for r in workload}
        for scheduler in schedulers:
            nodes = list(config.initial_nodes)
            scheduler(workload, nodes, config.scheduler)
            worst = max(worst, _conservation_gap(nodes, demands))
    assert worst <= 1e-9, f"batch conservation gap {worst:.3e}"

    timed = generate_synthetic(
        GeneratorSpec(
            request_count=80, seed=3, arrival_rate_per_s=1.0, duration_dist=LognormalSpec(2.5, 0.8)
        )
    )
    demands = {r.id: estimate_demand(r) for r in timed}
    boundaries = 0
    timeline_worst = 0.0

    def on_event(event: SimEvent, nodes) -> None:
        nonlocal boundaries, timeline_worst
        boundaries += 1
        timeline_worst = max(timeline_worst, _conservation_gap(nodes, demands))

    for algorithm in ("max-util", "load-balance", "power"):
        boundaries_before = boundaries
        run_timeline(
            timed,
            list(config.initial_nodes),
            algorithm,
            config.scheduler,
            AdaptorPolicy(scale_down_grace_s=30.0, retain_min_nodes=0),
            10.0,
            on_event=on_event,
        )
        assert boundaries - boundaries_before >= 2 * len(timed)
    assert timeline_worst <= 1e-9, f"timeline conservation gap {timeline_worst:.3e}"
    print(
        f"PASS 6: conservation within 1e-9 on 30 batch runs and {boundaries} timeline "
        f"event boundaries (worst {max(worst, timeline_worst):.2e})"
    )


def test_07_compare_is_byte_deterministic(tmp_path) -> None:
    trace = tmp_path / "trace.jsonl"
    write_trace(generate_synthetic(GeneratorSpec(request_count=300, seed=11)), trace)
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = cli_main(["compare", "--workload", str(trace), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    print(f"PASS 7: two compare invocations produced identical bytes ({len(outputs[0])} bytes)")


def test_08_hand_derived_timeline_energy() -> None:
    workload = [request("r1", 40.0, 20.0, 10.0, arrival_s=0.0, duration_s=100.0)]
    config = SchedulerConfig(threshold=Threshold(0.8))
    result = run_timeline(
        workload,
        [node("node-1")],
        "max-util",
        config,
        AdaptorPolicy(scale_down_grace_s=60.0, retain_min_nodes=0),
        50.0,
    )
    assert result.snapshots == (
        SnapshotRow(0.0, "node-1", 0.4, 0.2, 0.1, 140.0),
        SnapshotRow(50.0, "node-1", 0.4, 0.2, 0.1, 140.0),
        SnapshotRow(100.0, "node-1", 0.0, 0.0, 0.0, 0.0),
        SnapshotRow(150.0, "node-1", 0.0, 0.0, 0.0, 0.0),
    )
    expected_wh = 14000.0 / 3600.0  # 140 W for 100 s
    assert result.report.energy_wh is not None
    assert abs(result.report.energy_wh - expected_wh) <= 1e-9 * expected_wh
    assert result.report.node_count == 0  # retired at t=160
    print(f"PASS 8: hand-derived timeline matches ({result.report.energy_wh:.9f} Wh)")


def test_09_compare_scales_to_10k_requests_100_nodes(tmp_path) -> None:
    trace = tmp_path / "big.jsonl"
    write_trace(generate_synthetic(GeneratorSpec(request_count=10000, seed=2024)), trace)
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "cluster": [
                    {
                        "count": 100,
                        "capacity": {"compute": 2000, "memory_gib": 4096, "storage_gib": 8000},
                    }
                ],
                "autoscale": {"enabled": False},
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "cmp.csv"
    start = time.perf_counter()
    code = cli_main([
        "compare", "--workload", str(trace), "--config", str(config_path), "--out", str(out),
    ])
    elapsed = time.perf_counter() - start
    assert code in (0, 3)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    assert elapsed < 5.0, f"compare took {elapsed:.2f}s"
    print(f"PASS 9: compare over 10,000 requests x 100 nodes in {elapsed:.2f}s")
