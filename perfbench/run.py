"""End-to-end and per-layer benchmark of the gptsched CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

With --trace 0 the real CLI runs as a child process, one at a time:
after two warm-up runs, full runs alternate with one-request runs that
measure set-up time until --seconds have passed; the metrics are medians
of the children's own wall and CPU times. Every run is checked (exit
code, output digests or invariants, identity with the first full run)
and only correct runs are timed. With --trace 1 the CLI
runs in this process through ``gptsched.cli.main``, alternately untraced
and traced by ``tracer.py``, and the per-layer metrics of the traced runs
are reported. Metric names and units come from BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A record with the environment,
every sample and the output digests is written under
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import tracer as tracing
import workloads
from workloads import WORKLOADS, OutputError, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_RUNS = 3
# Whole seconds all runs of the program in one invocation may take
# together, so that it ends within three minutes even if the program hangs.
# A child still running then is killed; either way the invocation fails.
LIMIT_S = 150


class Run:
    """The files, inputs and run accounting of one benchmark invocation.

    Each failed run appends exactly one entry to failures.
    """

    def __init__(self, workload: Workload, seed: int, requests: int) -> None:
        self.workload = workload
        self.seed = seed
        self.requests = requests
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failures: List[str] = []
        self.reference: Optional[Dict[str, str]] = None

        trace = workload.trace(seed, requests)
        self.trace_sha256 = workloads.sha256(trace)
        pinned = workloads.PINNED.get((workload.name, seed, requests))
        if pinned is not None and pinned["trace.jsonl"] != self.trace_sha256:
            raise SystemExit(f"perfbench: generated trace {self.trace_sha256} is not the pinned one")
        self.dir.mkdir(parents=True, exist_ok=True)
        self.trace_path = self.dir / "trace.jsonl"
        self.trace_path.write_bytes(trace)
        self.setup_trace_path = self.dir / "setup-trace.jsonl"
        self.setup_trace_path.write_bytes(trace.split(b"\n", 1)[0] + b"\n")
        self.config_path = self.dir / "config.json"
        if workload.config is not None:
            self.config_path.write_text(json.dumps(workload.config))

    def argv(self, trace_path: Path, out: Path) -> List[str]:
        fill = {"{trace}": str(trace_path), "{config}": str(self.config_path), "{out}": str(out)}
        return [fill.get(arg, arg) for arg in self.workload.args]

    def out_path(self, label: str) -> Path:
        """A fresh output path: a directory, or a file with the output's suffix."""

        suffix = "" if self.workload.out_is_dir else Path(self.workload.outputs[0]).suffix
        out = self.dir / f"{label}{suffix}"
        if out.is_dir():
            shutil.rmtree(out)
        elif out.exists():
            out.unlink()
        return out

    def check(self, out: Path, records: int, exit_code: int, stderr: str = "") -> Optional[Dict[str, str]]:
        """Count one run and check it; returns its output digests, or None
        after recording why it failed.

        Full-size outputs must also equal the first correct full-size
        run's outputs byte for byte.
        """

        self.attempted += 1
        if exit_code != 0:
            self.failures.append(f"exit code {exit_code}: {stderr.strip()[-300:]}")
            return None
        try:
            outputs = workloads.read_outputs(self.workload, out)
            digests = workloads.check_outputs(self.workload, self.seed, records, outputs)
        except OutputError as exc:
            self.failures.append(str(exc))
            return None
        if records == self.requests:
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                self.failures.append("outputs differ from the first run of this seed")
                return None
        return digests


def _child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Spawner:
    """Runs child processes through spawner.py; see there for why."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("spawner.py"))],
                                      cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()

    def run(self, cmd: List[str], timeout_s: float, stderr_path: Path) -> Tuple[int, float, float, float]:
        """Run cmd once; returns (exit code, wall s, cpu s, max RSS MiB)."""

        job = {"cmd": cmd, "cwd": str(ROOT), "env": _child_env(), "timeout_s": timeout_s,
               "stderr": str(stderr_path)}
        self._proc.stdin.write(json.dumps(job) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise SystemExit("perfbench: spawner.py exited early")
        code, wall, cpu, rss = json.loads(line)
        return code, wall, cpu, rss


def measure(run: Run, seconds: float) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
    """Timed child-process runs; returns end-to-end metrics and raw samples.

    After an untimed one-request run (it also compiles bytecode in a fresh
    checkout) and an untimed full-size run, each round runs the full
    workload once and then the one-request set-up command once, until
    --seconds have passed. Set-up runs are thus spread over the window.
    The metrics are medians over the timed runs. They are empty when a
    warm-up run failed or no round succeeded.
    """

    limit = time.perf_counter() + LIMIT_S
    stderr_path = run.dir / "stderr.txt"
    timed_out = False
    # (wall, cpu, rss) of each correct full run and each set-up run.
    full: List[Tuple[float, float, float]] = []
    setup: List[Tuple[float, float, float]] = []

    def once(trace_path: Path, records: int, label: str, into: Optional[list]) -> bool:
        nonlocal timed_out
        out = run.out_path(label)
        cmd = [sys.executable, "-m", "gptsched.cli", *run.argv(trace_path, out)]
        code, wall, cpu, rss = spawner.run(cmd, max(limit - time.perf_counter(), 0.0), stderr_path)
        timed_out = timed_out or code == -9
        stderr = f"killed after {LIMIT_S} s" if timed_out else stderr_path.read_text(errors="replace")
        if run.check(out, records, code, stderr) is None:
            return False
        if into is not None:
            into.append((wall, cpu, rss))
        return True

    with Spawner() as spawner:
        if once(run.setup_trace_path, 1, "setup", None) and once(run.trace_path, run.requests, "warmup", None):
            deadline = time.perf_counter() + seconds
            while not timed_out:
                once(run.trace_path, run.requests, "out", full)
                once(run.setup_trace_path, 1, "setup", setup)
                # Stop when the next round would end past the deadline, or
                # at the deadline while fewer than MIN_RUNS are done.
                now = time.perf_counter()
                next_end = now + statistics.median(f[0] for f in full) if len(full) >= MIN_RUNS else now
                if (full and next_end > deadline) or now > deadline + seconds:
                    break
    samples = {
        "wall": [f[0] for f in full],
        "cpu": [f[1] for f in full],
        "rss": [f[2] for f in full],
        "setup_wall": [s[0] for s in setup],
    }
    if not full or not setup:
        return {}, samples
    return {
        "requests_per_s": run.requests / statistics.median(samples["wall"]),
        "cpu_s": statistics.median(samples["cpu"]),
        "peak_rss_mib": statistics.median(samples["rss"]),
        "setup_s": statistics.median(samples["setup_wall"]),
    }, samples


def _in_process(run: Run, out: Path, tracer: Optional[tracing.Tracer]) -> Tuple[int, float]:
    """One gptsched.cli.main call in this process; returns (exit code, wall s)."""

    from gptsched import cli

    argv = run.argv(run.trace_path, out)
    with tracing.instrument(tracer) if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        code = cli.main(argv)
        return code, time.perf_counter() - start


def _consistency(run: Run, metrics: Dict[str, float], tracer: tracing.Tracer, out: Path) -> List[str]:
    """Ways in which the traced run's counters disagree with its outputs."""

    name = run.workload.name
    outputs = workloads.read_outputs(run.workload, out)
    problems = []
    if metrics["workload.records"] != run.requests:
        problems.append("workload.records differs from the trace size")
    if metrics["scheduling.decisions"] != run.requests:
        problems.append("scheduling.decisions differs from the trace size")
    if name == "schedule-json":
        doc = json.loads(outputs["report.json"])
        scanned = sum(len(record["scanned"]) for record in doc["outcome"]["trace"])
        if metrics["scheduling.nodes_scanned"] != scanned:
            problems.append(f"scheduling.nodes_scanned {metrics['scheduling.nodes_scanned']} != {scanned}")
    if name == "simulate-timeline":
        kinds = sum(metrics[f"simulator.events.{kind}"] for kind in tracing.EVENT_KINDS)
        if kinds != tracer.counts.get("simulator.events"):
            problems.append("event counts by kind do not sum to the event total")
        if metrics["simulator.events.arrival"] != run.requests or metrics["scheduling.calls"] != run.requests:
            problems.append("arrivals or scheduler calls differ from the trace size")
        if metrics["simulator.snapshot_rows"] != workloads.snapshot_rows(outputs):
            problems.append("simulator.snapshot_rows differs from the snapshots.csv data rows")
    return problems


class _Expired(Exception):
    """Raised by SIGALRM when the traced runs take too long."""


def _expire(signum: int, frame: Any) -> None:
    raise _Expired()


def trace_layers(run: Run, seconds: float) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
    """Pairs of untraced and traced in-process runs, alternating which
    goes first, while the next pair ends within --seconds; returns the
    medians of the per-layer metrics and the raw walls.

    In-process runs cannot be killed, so SIGALRM stops them after
    LIMIT_S and the invocation reports a failure.
    """

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    walls: Dict[str, List[float]] = {"untraced_wall": [], "traced_wall": []}
    layer_runs: List[Dict[str, float]] = []
    last: Optional[tracing.Tracer] = None
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(LIMIT_S)
    try:
        # The first in-process run pays one-time costs (allocator growth,
        # lazy imports) that later runs do not; it is checked but not used.
        out = run.out_path("warmup")
        run.check(out, run.requests, _in_process(run, out, None)[0])
        start = time.perf_counter()
        deadline = start + seconds
        pair = 0
        while not run.failures:
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                tracer = tracing.Tracer() if traced else None
                out = run.out_path("traced" if traced else "untraced")
                code, wall = _in_process(run, out, tracer)
                if run.check(out, run.requests, code) is None:
                    break
                if tracer is None:
                    walls["untraced_wall"].append(wall)
                    continue
                metrics = tracing.layer_metrics(tracer, wall)
                problems = _consistency(run, metrics, tracer, out)
                if layer_runs and any(
                    isinstance(value, int) and value != layer_runs[0][key] for key, value in metrics.items()
                ):
                    problems.append("counters differ between traced runs")
                if problems:
                    run.failures.append("; ".join(problems))
                    break
                walls["traced_wall"].append(wall)
                layer_runs.append(metrics)
                last = tracer
            pair += 1
            # Stop when the next pair would end past the deadline.
            now = time.perf_counter()
            if now + (now - start) / pair > deadline:
                break
    except _Expired:
        run.attempted += 1
        run.failures.append(f"in-process runs still going after {LIMIT_S} s")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    if run.failures or last is None:
        return {}, walls
    metrics = {name: statistics.median([m[name] for m in layer_runs]) for name in layer_runs[0]}
    metrics["trace.overhead_s"] = statistics.median(walls["traced_wall"]) - statistics.median(walls["untraced_wall"])
    spans_path = WORK / "results" / f"{run.dir.name}-spans.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w") as stream:
        for span in last.spans():
            stream.write(json.dumps(span) + "\n")
    return metrics, walls


def _git_commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gptsched").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def bench_one(workload: Workload, seed: int, seconds: float, traced: bool, requests: int) -> Dict[str, Any]:
    """Run one workload and return its full record, also written to disk."""

    environment: Dict[str, Any] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "loadavg_start": list(os.getloadavg()),
    }
    run = Run(workload, seed, requests)
    try:
        metrics, samples = trace_layers(run, seconds) if traced else measure(run, seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    environment["loadavg_end"] = list(os.getloadavg())
    record = {
        "workload": workload.name,
        "seed": seed,
        "requests": requests,
        "trace": traced,
        "trace_sha256": run.trace_sha256,
        "output_sha256": run.reference,
        "environment": environment,
        "samples": samples,
        "failures": run.failures,
        "correct": bool(metrics) and not run.failures,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures),
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run.dir.name}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1))
    return record


def metric_units(traced: bool) -> Dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""

    with open(ROOT / "BENCHMARK.json") as stream:
        declared = json.load(stream)["per_layer" if traced else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in declared}


def report(record: Dict[str, Any]) -> str:
    """Human-readable summary lines, then the one-line JSON result."""

    env = record["environment"]
    lines = [
        f"# {record['workload']} seed {record['seed']}: {record['requests']} requests, "
        f"trace sha256 {record['trace_sha256']}",
        f"# nproc {env['nproc']}, Python {env['python']}, {env['platform']}, "
        f"commit {env['git_commit']}, source sha256 {env['source_sha256'][:16]}, "
        f"loadavg {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}",
    ]
    walls = record["samples"].get("wall")
    if walls:
        q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else (walls[0],) * 3
        lines.append(f"# {len(walls)} timed runs: wall median {statistics.median(walls):.4f} s, "
                     f"quartiles {q1:.4f} .. {q3:.4f} s; {len(record['samples']['setup_wall'])} set-up runs")
    lines.append(f"# failed_ratio {record['failed'] / record['attempted']:.4f} "
                 f"({record['failed']} of {record['attempted']} runs)")
    lines.extend(f"#   failure: {failure}" for failure in record["failures"][:5])
    units = metric_units(record["trace"])
    # Figures the run computes but BENCHMARK.json does not declare, because
    # they are 0 on a correct program or change sign with noise.
    lines.extend(f"# {name} {value:.6g}" for name, value in record["metrics"].items() if name not in units)
    metrics = {}
    for name, unit in units.items():
        value = record["metrics"].get(name)
        metrics[name] = {"value": value, "unit": unit}
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"{record['workload']:>18}  {name:<32} {shown:>14} {unit}")
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    lines.append(json.dumps(result))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end and per-layer benchmark of the gptsched CLI.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, help="override the request count (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "gptsched" / "cli.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        workload = WORKLOADS[name]
        record = bench_one(workload, args.seed, args.seconds, bool(args.trace),
                           args.requests or workload.requests)
        print(report(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
