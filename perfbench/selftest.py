"""Toy-size self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload once at 60 requests in both modes and checks that
every metric BENCHMARK.json names is printed with its unit, that a wrong
pinned digest is counted as a failure, and that the benchmark refuses to
run without the program's source.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from typing import Any, Dict, List

import run
import workloads

TOY_REQUESTS = 60
TOY_ARGS = ["--seed", str(workloads.DEFAULT_SEED), "--seconds", "1", "--requests", str(TOY_REQUESTS)]


def bench(workload: str, trace: int) -> Dict[str, Any]:
    """Run the benchmark in this process; returns the parsed last line."""

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", workload, "--trace", str(trace), *TOY_ARGS])
    if code != 0:
        raise AssertionError(f"benchmark exited {code}")
    return json.loads(stdout.getvalue().strip().splitlines()[-1])


def declared(section: str) -> Dict[str, str]:
    with open(run.ROOT / "BENCHMARK.json") as stream:
        return {metric["name"]: metric["unit"] for metric in json.load(stream)[section]}


class SelfTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self) -> None:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            units = declared(section)
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    result = bench(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), set(units))
                    for metric, entry in result["metrics"].items():
                        self.assertEqual(entry["unit"], units[metric], metric)
                        self.assertIsInstance(entry["value"], (int, float), metric)

    def test_wrong_pinned_digest_is_a_failure(self) -> None:
        workload = workloads.WORKLOADS["schedule-json"]
        key = (workload.name, workloads.DEFAULT_SEED, TOY_REQUESTS)
        trace = workloads.sha256(workload.trace(workloads.DEFAULT_SEED, TOY_REQUESTS))
        workloads.PINNED[key] = {"trace.jsonl": trace, "report.json": "0" * 64}
        try:
            for trace_mode in (0, 1):
                with self.subTest(trace=trace_mode):
                    result = bench(workload.name, trace_mode)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)
                    self.assertLessEqual(result["failed"], result["attempted"])
        finally:
            del workloads.PINNED[key]

    def test_refuses_to_run_without_the_program(self) -> None:
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.mkdir(parents=True)
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            argv: List[str] = [sys.executable, "perfbench/run.py", "--workload", "schedule-json",
                               "--trace", "0", *TOY_ARGS]
            done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
