"""Benchmark-owned inputs, workload definitions and output checks.

Traces are generated here, not by the program under test, so a change to
the program's own generator cannot change what the benchmark feeds it.
The generator follows the trace format and draw order documented in
``gptsched.workload`` (SplitMix64, Box-Muller cosine branch, inversion for
exponential gaps), so a benchmark trace is byte-identical to ``gptsched
gen`` with the same seed and count wherever the one deliberate difference
does not bite: prompt plus output tokens are capped so that the profiled
compute demand stays at or below ``MAX_COMPUTE`` units. Every
request then fits an empty default node under the 0.8 threshold, so no
request is rejected and every workload exits 0 on every seed. Without it,
about one seed in five draws a 70B request too large for any node. Seeds 7
and 11 draw none, so their traces equal ``gptsched gen`` output exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# Outputs are pinned at this seed. Seed 11 is held out: use it only to
# confirm a claim made on other seeds.
DEFAULT_SEED = 7

SNAPSHOT_INTERVAL_S = 60.0
TIMELINE_CONFIG = {"cluster": [{"count": 100}]}

# Compute units per request: the 0.8 threshold of a default 1000-unit node.
# The program's default profiler prices compute at 0.002 x params_b x tokens.
MAX_COMPUTE = 800.0

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MODEL_SIZES = ((7.0, 0.6), (13.0, 0.3), (70.0, 0.1))
_TASK_KINDS = ("translation", "summarization", "qa", "chat", "other")


class _SplitMix64:
    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN_GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def lognormal(self, mu: float, sigma: float) -> float:
        u1 = self.uniform()
        u2 = self.uniform()
        normal = math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)
        return math.exp(mu + sigma * normal)


def _tokens(value: float) -> int:
    return min(32768, max(1, int(round(value))))


def generate_trace(
    count: int,
    seed: int,
    arrival_rate_per_s: Optional[float] = None,
    duration: Optional[Tuple[float, float]] = None,
) -> bytes:
    """JSON Lines trace of count requests, a pure function of the arguments."""

    rng = _SplitMix64(seed)
    cumulative = []
    running = 0.0
    for _, prob in _MODEL_SIZES:
        running += prob
        cumulative.append(running)
    lines: List[str] = []
    arrival = 0.0
    for n in range(1, count + 1):
        u = rng.uniform()
        pick = next((i for i, edge in enumerate(cumulative) if u < edge), len(cumulative) - 1)
        prompt = _tokens(rng.lognormal(5.5, 0.8))
        output = _tokens(rng.lognormal(5.0, 1.0))
        params = _MODEL_SIZES[pick][0]
        cap = int(MAX_COMPUTE / (0.002 * params))
        output = max(1, min(output, cap - prompt))
        prompt = min(prompt, cap - output)
        record: Dict[str, object] = {
            "id": f"req-{n:06d}",
            "task_kind": _TASK_KINDS[min(4, int(rng.uniform() * 5.0))],
            "model_params_b": params,
            "prompt_tokens": prompt,
            "output_tokens": output,
        }
        if arrival_rate_per_s is not None:
            arrival += -math.log(1.0 - rng.uniform()) / arrival_rate_per_s
            record["arrival_s"] = arrival
        if duration is not None:
            record["duration_s"] = rng.lognormal(*duration)
        lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    return "".join(lines).encode("utf-8")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class OutputError(Exception):
    """An output file is missing or breaks an invariant of its workload."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


def _check_schedule_json(outputs: Dict[str, bytes], records: int) -> None:
    doc = json.loads(outputs["report.json"])
    outcome, report = doc["outcome"], doc["report"]
    _require(doc["algorithm"] == "max-util", "algorithm is not max-util")
    _require(report["request_count"] == records, "request_count differs from the trace size")
    allocated = len(outcome["allocation"])
    _require(allocated + len(outcome["unallocated"]) == records, "allocated + unallocated != N")
    _require(report["unallocated_count"] == 0, "requests left unallocated")
    _require(len(outcome["trace"]) == records, "decision trace length != N")
    _require(report["node_count"] == 4 + len(outcome["created_node_ids"]), "node_count != 4 + created")


def _csv_rows(data: bytes) -> List[Dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _check_simulate_timeline(outputs: Dict[str, bytes], records: int) -> None:
    report = json.loads(outputs["report.json"])
    _require(report["request_count"] == records, "request_count differs from the trace size")
    _require(report["unallocated_count"] == 0, "requests left unallocated")
    _require(report["energy_wh"] is not None and report["energy_wh"] > 0, "no energy integral")
    rows = _csv_rows(outputs["snapshots.csv"])
    _require(len(rows) >= 1, "no snapshot rows")
    for row in rows:
        grid = float(row["time_s"]) / SNAPSHOT_INTERVAL_S
        _require(grid == round(grid), f"snapshot off the grid at t={row['time_s']}")


def snapshot_rows(outputs: Dict[str, bytes]) -> int:
    return outputs["snapshots.csv"].count(b"\n") - 1


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape.

    args holds the CLI arguments after the subcommand, with {trace},
    {config} and {out} standing for paths the benchmark fills in. outputs
    names the files the run writes, relative to {out} when out_is_dir.
    A timed workload's trace carries arrivals (8/s) and lognormal(4, 0.5)
    durations.
    """

    name: str
    requests: int
    args: Tuple[str, ...]
    outputs: Tuple[str, ...]
    out_is_dir: bool
    config: Optional[Dict[str, object]]
    timed: bool
    check: Callable[[Dict[str, bytes], int], None]

    def trace(self, seed: int, requests: int) -> bytes:
        if self.timed:
            return generate_trace(requests, seed, arrival_rate_per_s=8.0, duration=(4.0, 0.5))
        return generate_trace(requests, seed)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The default 4-node autoscaling cluster grows to ~370 nodes, so the
        # JSON decision trace (reportio) dominates.
        Workload(
            name="schedule-json",
            requests=5000,
            args=("schedule", "--workload", "{trace}", "--algorithm", "max-util",
                  "--format", "json", "--out", "{out}"),
            outputs=("report.json",),
            out_is_dir=False,
            config=None,
            timed=False,
            check=_check_schedule_json,
        ),
        # 4000 timed arrivals on 100 nodes that scale down, so per-arrival
        # placement, power accounting and the event loop do the work.
        Workload(
            name="simulate-timeline",
            requests=4000,
            args=("simulate", "--workload", "{trace}", "--config", "{config}",
                  "--algorithm", "max-util", "--snapshot-interval", f"{SNAPSHOT_INTERVAL_S:g}", "--out", "{out}"),
            outputs=("report.json", "snapshots.csv"),
            out_is_dir=True,
            config=TIMELINE_CONFIG,
            timed=True,
            check=_check_simulate_timeline,
        ),
    )
}

# sha256 of the generated trace and of every output file, for the default
# seed at the default request count, as the parent commit of the benchmark
# produced them (identical to ``gptsched gen`` + the CLI by hand). Any other
# seed or size is checked by the invariants above and by run-to-run identity.
PINNED: Dict[Tuple[str, int, int], Dict[str, str]] = {
    ("schedule-json", DEFAULT_SEED, 5000): {
        "trace.jsonl": "a0bdb10108c4e3a37330731ca948f08c4f71a0c6695c3ffa6c75562202632322",
        "report.json": "34bdfb0bf03c5c12e4e6320108d97bed2910861d19ac506946598590dd7c3228",
    },
    ("simulate-timeline", DEFAULT_SEED, 4000): {
        "trace.jsonl": "9aef41d07b8bec754e6c56cdff54fe0adc9c3a39522e4f5c61f1d5e37b8fcbb0",
        "report.json": "c16366495102a0146fd8618242f6f973206730ed47ebd1ec7bb0675f40ce8dbc",
        "snapshots.csv": "518f9c6336fbe658bb1d7ebc25b0ada4386d1c025401cfc83570b2dc34b194e9",
    },
}


def read_outputs(workload: Workload, out: Path) -> Dict[str, bytes]:
    """The bytes of every output file the workload writes under out."""

    files: Dict[str, bytes] = {}
    for name in workload.outputs:
        path = out / name if workload.out_is_dir else out
        try:
            files[name] = path.read_bytes()
        except OSError as exc:
            raise OutputError(f"missing output {name}: {exc}") from None
    return files


def check_outputs(
    workload: Workload, seed: int, records: int, outputs: Dict[str, bytes]
) -> Dict[str, str]:
    """Check outputs against the invariants and, where pinned, the digests.

    Returns the digest of every output file; raises OutputError on any
    mismatch.
    """

    digests = {name: sha256(data) for name, data in outputs.items()}
    pinned = PINNED.get((workload.name, seed, records))
    if pinned is not None:
        for name, digest in digests.items():
            _require(pinned[name] == digest, f"{name} digest {digest[:12]} != pinned {pinned[name][:12]}")
    try:
        workload.check(outputs, records)
    except (KeyError, ValueError, TypeError) as exc:
        raise OutputError(f"malformed output: {exc!r}") from None
    return digests
