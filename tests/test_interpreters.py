"""The same CLI bytes and the same metric floats under every interpreter.

README promises that identical inputs give byte-identical outputs on any
platform. This check runs one driver script under the running interpreter
and under each other CPython 3.10+ it finds, and compares every file the
driver writes with the running interpreter's bytes:

- the 300-request seed-11 golden set: ``gen`` (plain and timed),
  ``schedule --format json`` for the three algorithms, ``compare --format
  csv`` and ``simulate`` for the three algorithms on the timed trace;
- ``repr`` of ``mean_compute_utilization``, ``utilization_stddev`` and
  ``per_resource_mean_utilization`` on fixed clusters. One of them holds
  utilizations on which 3.10's ``statistics.pstdev`` is one ulp off the
  correctly rounded root.

``total_power_w``, ``power_steps`` and ``energy_wh`` are left out: they are
plain float sums, and the builtin ``sum()`` is compensated from 3.12 on, so
their last digits still differ between 3.10/3.11 and 3.12/3.13.

Interpreters come from ``GPTSCHED_INTERPRETERS`` (a path list) when it is
set, else from ``$PYENV_ROOT/versions/*/bin/python3`` with ``PYENV_ROOT``
defaulting to ``~/.pyenv``. They need no pytest: each runs the driver as a
child process with only ``PYTHONPATH`` and ``PYTHONHASHSEED`` set.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Exits 0 only under CPython 3.10+; runs on any interpreter, 2.7 too.
_VERSION_PROBE = (
    "import platform, sys; "
    "sys.exit(not (platform.python_implementation() == 'CPython' and sys.version_info >= (3, 10)))"
)

# argv[1] is the output directory. Exits 1 when a CLI run does not exit 0.
DRIVER = r'''
import json, sys
from pathlib import Path

from gptsched import (
    Node, NodeTemplate, ResourceVector, UtilizationVector,
    mean_compute_utilization, per_resource_mean_utilization, utilization_stddev,
)
from gptsched.cli import main

out = Path(sys.argv[1])
config = out / "timeline.json"
config.write_text(json.dumps({
    "cluster": [{"count": 100}],
    "generator": {"arrival_rate_per_s": 8.0, "duration": {"mu": 4.0, "sigma": 0.5}},
}), encoding="utf-8")
trace, timed = str(out / "trace.jsonl"), str(out / "timed.jsonl")
algorithms = ("max-util", "load-balance", "power")
runs = [
    ["gen", "--count", "300", "--seed", "11", "--out", trace],
    ["gen", "--config", str(config), "--count", "300", "--seed", "11", "--out", timed],
    *(["schedule", "--workload", trace, "--algorithm", name, "--format", "json",
       "--out", str(out / ("schedule-%s.json" % name))] for name in algorithms),
    ["compare", "--workload", trace, "--format", "csv", "--out", str(out / "compare.csv")],
    *(["simulate", "--workload", timed, "--config", str(config), "--algorithm", name,
       "--out", str(out / ("simulate-" + name))] for name in algorithms),
]
codes = [main(argv) for argv in runs]
if codes != [0] * len(runs):
    sys.exit("exit codes %r" % (codes,))

template = NodeTemplate(ResourceVector(100.0, 100.0, 100.0), p_idle_w=100.0, p_max_w=200.0)
clusters = [
    [(0.09, 0.0, 0.0), (0.993, 0.0, 0.0)],
    [(0.19, 0.5, 0.25), (0.012, 0.125, 0.0)],
    [(0.2, 0.4, 0.6), (0.4, 0.6, 0.8), (0.6, 0.1, 0.3)],
    [(0.3, 0.3, 0.3)] * 7,
    [(0.0, 0.0, 0.0), (0.81, 0.17, 0.05), (0.333, 0.77, 0.9), (1.0, 1.0, 1.0), (5e-324, 0.0, 0.7)],
]
lines = []
for utils in clusters:
    nodes = [
        Node("n%d" % i, template, UtilizationVector(*u), frozenset({"r%d" % i}))
        for i, u in enumerate(utils)
    ]
    lines.append(repr((
        mean_compute_utilization(nodes),
        utilization_stddev(nodes),
        per_resource_mean_utilization(nodes).as_tuple(),
    )))
(out / "metrics.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
'''


def _candidates() -> List[str]:
    listed = os.environ.get("GPTSCHED_INTERPRETERS")
    if listed is not None:
        return [path for path in listed.split(os.pathsep) if path]
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    return sorted(str(path) for path in root.glob("versions/*/bin/python3"))


def _other_interpreters() -> List[str]:
    """The CPython 3.10+ candidates that are not the running interpreter."""

    running = os.path.realpath(sys.executable)
    found = []
    for path in _candidates():
        if not os.path.isfile(path) or os.path.realpath(path) == running:
            continue
        if subprocess.run([path, "-c", _VERSION_PROBE], capture_output=True, timeout=30).returncode == 0:
            found.append(path)
    return found


def _run_driver(interpreter: str, out: Path) -> Dict[str, bytes]:
    out.mkdir()
    proc = subprocess.run(
        [interpreter, "-c", DRIVER, str(out)],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"},
    )
    assert proc.returncode == 0, f"{interpreter}: {proc.stderr}"
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_other_interpreters_write_the_same_bytes_and_floats(tmp_path) -> None:
    others = _other_interpreters()
    if not others:
        pytest.skip("no other CPython 3.10+ interpreter found")
    expected = _run_driver(sys.executable, tmp_path / "running")
    assert len(expected) == 14  # config, 2 traces, 3 schedules, compare, 3 × 2 simulate files, metrics
    for index, interpreter in enumerate(others):
        got = _run_driver(interpreter, tmp_path / f"other-{index}")
        assert sorted(got) == sorted(expected), interpreter
        differing = [name for name in expected if got[name] != expected[name]]
        assert not differing, f"{interpreter} differs on {differing}"
