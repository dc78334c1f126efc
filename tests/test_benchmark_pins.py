"""The benchmark's pinned output bytes, checked in the test suite.

``perfbench/workloads.py`` generates the benchmark's traces and pins the
sha256 of every output at its default seed. This test imports that module
as it is, generates both traces, runs each workload through the CLI in
this process and checks every pinned digest and output invariant, so a
change that alters a byte fails here and not only in a benchmark run.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from gptsched.cli import main

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_pinned_workload_runs_at_the_default_seed(workloads) -> None:
    pinned = {name for name, seed, _ in workloads.PINNED if seed == workloads.DEFAULT_SEED}
    assert pinned == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["schedule-json", "simulate-timeline"])
def test_pinned_digests(workloads, name: str, tmp_path) -> None:
    workload = workloads.WORKLOADS[name]
    seed, records = workloads.DEFAULT_SEED, workload.requests
    pinned = workloads.PINNED[(name, seed, records)]
    trace = workload.trace(seed, records)
    assert workloads.sha256(trace) == pinned["trace.jsonl"]

    paths = {"{trace}": tmp_path / "trace.jsonl", "{config}": tmp_path / "config.json"}
    paths["{out}"] = tmp_path / ("out" if workload.out_is_dir else "out" + Path(workload.outputs[0]).suffix)
    paths["{trace}"].write_bytes(trace)
    if workload.config is not None:
        paths["{config}"].write_text(json.dumps(workload.config))
    assert main([str(paths.get(arg, arg)) for arg in workload.args]) == 0

    outputs = workloads.read_outputs(workload, paths["{out}"])
    digests = workloads.check_outputs(workload, seed, records, outputs)
    assert {name: digests[name] for name in outputs} == {name: pinned[name] for name in outputs}
