"""Pinned bytes of small CLI runs.

Every CLI output is meant to stay byte-identical across refactors and
optimizations. These sha256 digests pin a 300-request seed-11 trace from
``gen`` and the outputs of ``schedule --format json`` (all three
algorithms, default config), ``compare --format json`` and ``simulate`` on
a 100-node cluster, so a drift fails the test suite instead of showing up
only in a benchmark run.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from gptsched.cli import main

# The benchmark's timeline cluster, plus timed arrivals (8/s) with
# lognormal(4, 0.5) durations for the generator.
TIMELINE_CONFIG = {
    "cluster": [{"count": 100}],
    "generator": {"arrival_rate_per_s": 8.0, "duration": {"mu": 4.0, "sigma": 0.5}},
}

GOLDEN = {
    "trace.jsonl": "331bc2467417965e8a7f12aba65149e6260bc467fb33d69c106e23a2517d41de",
    "timed.jsonl": "c9a583d74fb080a379ee999f9b47d97816d3d7fcc83d5f98d6e65acb818c432c",
    "schedule-max-util.json": "7352df5eebb32abbcec984a6f18d0b6bef35cf174a9815cbe1900d03717c76b6",
    "schedule-load-balance.json": "b8f1e43247d0a3a53d9945497495a392b2fae5dcf31c1aec0db307c90a106dff",
    "schedule-power.json": "f82cd884a2e99a6d04dc5dfc81f5b5d7bf15999813d0ab752b5a1e5330465203",
    "compare.json": "cfc19e356deb545f91340bdb9279c05da070d5bbd370ee83609fd3657ee58fe4",
    "simulate/report.json": "4f198c11509a99775a7eec6204c108dae1f43da3a8b8abbfc4e82440207ecb8f",
    "simulate/snapshots.csv": "e6ef6d32aa544ab6d8a31d8d170b99090a41df616afeb1be1473904929c1989d",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    config = out / "timeline.json"
    config.write_text(json.dumps(TIMELINE_CONFIG), encoding="utf-8")
    trace, timed = str(out / "trace.jsonl"), str(out / "timed.jsonl")
    runs = [
        ["gen", "--count", "300", "--seed", "11", "--out", trace],
        ["gen", "--config", str(config), "--count", "300", "--seed", "11", "--out", timed],
        *(
            ["schedule", "--workload", trace, "--algorithm", name, "--format", "json",
             "--out", str(out / f"schedule-{name}.json")]
            for name in ("max-util", "load-balance", "power")
        ),
        ["compare", "--workload", trace, "--format", "json", "--out", str(out / "compare.json")],
        ["simulate", "--workload", timed, "--config", str(config), "--algorithm", "max-util",
         "--out", str(out / "simulate")],
    ]
    codes = [main(argv) for argv in runs]
    return out, codes


def test_golden_runs_exit_0(outputs) -> None:
    _, codes = outputs
    assert codes == [0] * 7


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_bytes(outputs, name: str) -> None:
    out, _ = outputs
    assert _digest(out / name) == GOLDEN[name]
