"""Pinned bytes of the CSV outputs test_golden_outputs leaves out.

The same 300-request seed-11 trace and timed trace as test_golden_outputs,
written by ``schedule --format csv`` (all three algorithms), ``compare``
(CSV, its default) and ``simulate --algorithm power --format csv``, so
the one-row report, comparison and snapshot tables are pinned too.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from gptsched.cli import main

from test_golden_outputs import TIMELINE_CONFIG

GOLDEN_CSV = {
    "schedule-max-util.csv": "92e571cae91bad36ccec69d0d96d67743e43589aa8bf5c4c160920340fefd70a",
    "schedule-load-balance.csv": "e98019d54fd7c5d39d49953db6ac6fa1f970c3229dbac1d08c2edf4c336e48ad",
    "schedule-power.csv": "429d0b11729a052d7ab6e6c572ce27cbce28b1b3482ca72abc626814a6eaf383",
    "compare.csv": "f3f05c0d4ca3b97ce821b972952c0b0529ba658b5e8a525aafc83aaefcdb97bd",
    "simulate-power/report.csv": "8a903933ea43157871381c1f538780f80d7bd84b817ef8b991bc4472ddffcbce",
    "simulate-power/snapshots.csv": "8e1e5443f15802fac4f070e5307a264e00d7c68c14df7c8edc1273f40d0dbf1c",
}


@pytest.fixture(scope="module")
def csv_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden-csv")
    config = out / "timeline.json"
    config.write_text(json.dumps(TIMELINE_CONFIG), encoding="utf-8")
    trace, timed = str(out / "trace.jsonl"), str(out / "timed.jsonl")
    runs = [
        ["gen", "--count", "300", "--seed", "11", "--out", trace],
        ["gen", "--config", str(config), "--count", "300", "--seed", "11", "--out", timed],
        *(
            ["schedule", "--workload", trace, "--algorithm", name, "--format", "csv",
             "--out", str(out / f"schedule-{name}.csv")]
            for name in ("max-util", "load-balance", "power")
        ),
        ["compare", "--workload", trace, "--out", str(out / "compare.csv")],
        ["simulate", "--workload", timed, "--config", str(config), "--algorithm", "power",
         "--format", "csv", "--out", str(out / "simulate-power")],
    ]
    codes = [main(argv) for argv in runs]
    return out, codes


def test_golden_csv_runs_exit_0(csv_outputs) -> None:
    _, codes = csv_outputs
    assert codes == [0] * 7


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
def test_golden_csv_bytes(csv_outputs, name: str) -> None:
    out, _ = csv_outputs
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == GOLDEN_CSV[name]
