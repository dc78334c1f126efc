"""Trace I/O and seeded synthetic workload generation.

Trace format. One JSON object per line (JSON Lines, UTF-8, LF endings)
with keys in this order:

    id, task_kind, model_params_b, prompt_tokens, output_tokens,
    demand {compute, memory_gib, storage_gib}, arrival_s, duration_s,
    deadline_s

The first five are required; demand and the timing fields are optional and
omitted when absent. Floats are written with Python's shortest round-trip
repr so a write/load cycle reproduces the exact request list. reportio
opens the file: a written trace replaces its path whole or not at all.

Random generator. All sampling uses SplitMix64, a tiny, well-known 64-bit
generator chosen so a reimplementation in any language reproduces the same
traces from the same seed. Derived draws are fixed too: uniforms map the
top 53 bits onto [0, 1), normals use Box-Muller (two uniforms each, cosine
branch), exponentials use inversion, categorical picks walk cumulative
probabilities. Per request the draw order is: model size (1 uniform),
prompt tokens (2), output tokens (2), task kind (1), then arrival gap (1,
only when an arrival rate is set) and duration (2, only when a duration
distribution is set). Token counts are rounded half-even and clamped to
[1, 32768].
"""

from __future__ import annotations

import io
import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .model import (
    GptRequest,
    GptSchedError,
    ResourceVector,
    TaskKind,
    ValidationError,
    echo,
    plain_request_values,
    record,
    trusted,
)
from .reportio import TextStream, open_text, write_chunks

MIN_TOKENS = 1
MAX_TOKENS = 32768

# The largest request_count a GeneratorSpec accepts.
MAX_REQUEST_COUNT = 1_000_000

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15

class TraceParseError(GptSchedError):
    """A trace line could not be parsed or validated. Carries line_no."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SplitMix64:
    """SplitMix64: state += golden gamma; output = xor-shift-multiply mix.

    Public-domain constants (Steele, Lea, Flood 2014). Uniform doubles use
    the top 53 bits, so results are identical on any IEEE-754 platform.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN_GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """One double in [0, 1)."""

        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via Box-Muller, cosine branch. Two uniforms."""

        u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)

    def lognormal(self, mu: float, sigma: float) -> float:
        return math.exp(mu + sigma * self.normal())

    def exponential(self, rate: float) -> float:
        """Exponential gap with the given rate, by inversion. One uniform."""

        return -math.log(1.0 - self.uniform()) / rate

    def pick(self, cumulative: Sequence[float]) -> int:
        """Index of the first cumulative edge exceeding one uniform draw."""

        u = self.uniform()
        for index, edge in enumerate(cumulative):
            if u < edge:
                return index
        return len(cumulative) - 1


@record
class LognormalSpec:
    """Parameters of a lognormal distribution: exp(mu + sigma * N(0,1))."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu) or not math.isfinite(self.sigma) or self.sigma < 0.0:
            raise ValidationError(f"lognormal parameters must be finite with sigma >= 0, got {self}")


@record
class GeneratorSpec:
    """Knobs of the synthetic workload generator.

    model_size_choices_b pairs (params_b, probability); probabilities must
    sum to 1 within 1e-9. arrival_rate_per_s switches on Poisson arrivals
    (cumulative exponential gaps); duration_dist switches on lognormal
    service durations. Both default off, producing batch-only traces.
    """

    request_count: int = 1000
    seed: int = 42
    model_size_choices_b: Tuple[Tuple[float, float], ...] = ((7.0, 0.6), (13.0, 0.3), (70.0, 0.1))
    prompt_tokens_dist: LognormalSpec = LognormalSpec(5.5, 0.8)
    output_tokens_dist: LognormalSpec = LognormalSpec(5.0, 1.0)
    arrival_rate_per_s: Optional[float] = None
    duration_dist: Optional[LognormalSpec] = None

    def __post_init__(self) -> None:
        if not isinstance(self.request_count, int) or self.request_count <= 0:
            raise ValidationError(f"request_count must be a positive int, got {echo(self.request_count)}")
        if self.request_count > MAX_REQUEST_COUNT:
            raise ValidationError(f"request_count must be at most {MAX_REQUEST_COUNT}, got {echo(self.request_count)}")
        if not isinstance(self.seed, int) or not 0 <= self.seed <= _MASK64:
            raise ValidationError(f"seed must be an unsigned 64-bit int, got {echo(self.seed)}")
        choices = tuple((float(size), float(prob)) for size, prob in self.model_size_choices_b)
        object.__setattr__(self, "model_size_choices_b", choices)
        if not choices:
            raise ValidationError("model_size_choices_b must not be empty")
        for size, prob in choices:
            if not math.isfinite(size) or size <= 0.0:
                raise ValidationError(f"model size must be finite and > 0, got {size!r}")
            if not math.isfinite(prob) or prob < 0.0:
                raise ValidationError(f"model probability must be finite and >= 0, got {prob!r}")
        total = sum(prob for _, prob in choices)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"model probabilities must sum to 1 within 1e-9, got {total!r}")
        if self.arrival_rate_per_s is not None:
            rate = self.arrival_rate_per_s
            if not math.isfinite(rate) or rate <= 0.0:
                raise ValidationError(f"arrival_rate_per_s must be finite and > 0, got {rate!r}")


DEFAULT_GENERATOR_SPEC = GeneratorSpec()

# Fixed order used when sampling a task kind (one uniform scaled by 5).
_TASK_KINDS = (
    TaskKind.TRANSLATION,
    TaskKind.SUMMARIZATION,
    TaskKind.QA,
    TaskKind.CHAT,
    TaskKind.OTHER,
)


def _clamp_tokens(value: float) -> int:
    return min(MAX_TOKENS, max(MIN_TOKENS, int(round(value))))


def generate_synthetic(spec: GeneratorSpec) -> List[GptRequest]:
    """Generate spec.request_count requests, a pure function of spec.

    Ids run req-000001, req-000002, ... Arrival times, when enabled, are
    cumulative exponential gaps starting from 0.
    """

    rng = SplitMix64(spec.seed)
    cumulative: List[float] = []
    running = 0.0
    for _, prob in spec.model_size_choices_b:
        running += prob
        cumulative.append(running)

    requests: List[GptRequest] = []
    arrival = 0.0
    for n in range(1, spec.request_count + 1):
        params = spec.model_size_choices_b[rng.pick(cumulative)][0]
        prompt = _clamp_tokens(rng.lognormal(spec.prompt_tokens_dist.mu, spec.prompt_tokens_dist.sigma))
        output = _clamp_tokens(rng.lognormal(spec.output_tokens_dist.mu, spec.output_tokens_dist.sigma))
        kind = _TASK_KINDS[min(4, int(rng.uniform() * 5.0))]
        arrival_s: Optional[float] = None
        duration_s: Optional[float] = None
        if spec.arrival_rate_per_s is not None:
            arrival += rng.exponential(spec.arrival_rate_per_s)
            arrival_s = arrival
        if spec.duration_dist is not None:
            duration_s = rng.lognormal(spec.duration_dist.mu, spec.duration_dist.sigma)
        requests.append(
            GptRequest(
                id=f"req-{n:06d}",
                task_kind=kind,
                model_params_b=params,
                prompt_tokens=prompt,
                output_tokens=output,
                arrival_s=arrival_s,
                duration_s=duration_s,
            )
        )
    return requests


def request_to_dict(request: GptRequest) -> Dict[str, object]:
    """Trace-schema dict for one request, keys in canonical order."""

    record: Dict[str, object] = {
        "id": request.id,
        "task_kind": request.task_kind.value,
        "model_params_b": request.model_params_b,
        "prompt_tokens": request.prompt_tokens,
        "output_tokens": request.output_tokens,
    }
    if request.explicit_demand is not None:
        demand = request.explicit_demand
        record["demand"] = {
            "compute": demand.compute,
            "memory_gib": demand.memory_gib,
            "storage_gib": demand.storage_gib,
        }
    if request.arrival_s is not None:
        record["arrival_s"] = request.arrival_s
    if request.duration_s is not None:
        record["duration_s"] = request.duration_s
    if request.deadline_s is not None:
        record["deadline_s"] = request.deadline_s
    return record


def read_number(value: object) -> float:
    """A JSON number as a finite float, else a ValidationError naming no field.

    NaN, the infinities and integers too large for a float are refused.
    """

    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"must be a number, got {echo(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"must be finite, got {echo(value)}")
    return number


def read_int(value: object) -> int:
    """A JSON integer, refused as read_number refuses one too large for a float."""

    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"must be an integer, got {echo(value)}")
    read_number(value)
    return value


def _read_fields(obj: Dict[str, object], readers: Sequence[Tuple[str, Any]], line_no: int) -> Dict[str, Any]:
    """The keys of obj that readers name, each read; a refusal names the field and line."""

    values: Dict[str, Any] = {}
    for key, read in readers:
        if key in obj:
            try:
                values[key] = read(obj[key])
            except ValidationError as exc:
                raise TraceParseError(line_no, f"field {key!r} {exc}") from None
    return values


_REQUIRED_KEYS = ("id", "task_kind", "model_params_b", "prompt_tokens", "output_tokens")
_REQUIRED = frozenset(_REQUIRED_KEYS)
_KNOWN = _REQUIRED | {"demand", "arrival_s", "duration_s", "deadline_s"}
_DEMAND_KEYS = ("compute", "memory_gib", "storage_gib")
_DEMAND = frozenset(_DEMAND_KEYS)
_DEMAND_READERS = tuple((key, read_number) for key in _DEMAND_KEYS)
_TASK_KINDS_BY_VALUE = {kind.value: kind for kind in TaskKind}
_new_request = trusted(GptRequest)
_NUMBER_READERS = (
    ("model_params_b", read_number), ("arrival_s", read_number), ("duration_s", read_number),
    ("deadline_s", read_number), ("prompt_tokens", read_int), ("output_tokens", read_int),
)


def request_from_dict(obj: Dict[str, object], line_no: int = 0) -> GptRequest:
    """Parse one trace record, raising TraceParseError on any violation."""

    if not isinstance(obj, dict):
        raise TraceParseError(line_no, f"record must be a JSON object, got {type(obj).__name__}")
    # The common case in one pass: with the five required values set, the
    # length leaves no demand, null or unknown key. Every check below would
    # pass (read_int keeps ints up to 2**53 as given), so trusted may build it.
    get = obj.get
    request_id, kind_value = get("id"), get("task_kind")
    params, prompt, output = get("model_params_b"), get("prompt_tokens"), get("output_tokens")
    arrival, duration, deadline = get("arrival_s"), get("duration_s"), get("deadline_s")
    kind = _TASK_KINDS_BY_VALUE.get(kind_value) if type(kind_value) is str else None
    if (
        type(request_id) is str and request_id and request_id.isascii()
        and len(obj) == 5 + (arrival is not None) + (duration is not None) + (deadline is not None)
        and plain_request_values(kind, params, prompt, output, arrival, duration, deadline)
        and params > 0.0 and prompt <= 2**53 and output <= 2**53
    ):
        return _new_request(request_id, kind, params, prompt, output, None, arrival, duration, deadline)
    if not obj.keys() >= _REQUIRED:
        missing = next(key for key in _REQUIRED_KEYS if key not in obj)
        raise TraceParseError(line_no, f"missing required field {missing!r}")
    if not obj.keys() <= _KNOWN:
        raise TraceParseError(line_no, f"unknown fields {echo(sorted(obj.keys() - _KNOWN))}")

    request_id = obj["id"]
    if not isinstance(request_id, str) or not request_id:
        raise TraceParseError(line_no, f"field 'id' must be a non-empty string, got {echo(request_id)}")
    try:
        request_id.encode()
    except UnicodeEncodeError:
        raise TraceParseError(line_no, f"field 'id' must be encodable as UTF-8, got {echo(request_id)}") from None
    try:
        kind = TaskKind(obj["task_kind"])
    except ValueError:
        raise TraceParseError(line_no, f"unknown task_kind {echo(obj['task_kind'])}") from None

    demand: Optional[ResourceVector] = None
    if "demand" in obj:
        raw = obj["demand"]
        if not isinstance(raw, dict) or raw.keys() != _DEMAND:
            raise TraceParseError(line_no, f"field 'demand' must have exactly keys {_DEMAND_KEYS}")
        values = _read_fields(raw, _DEMAND_READERS, line_no)
        try:
            demand = ResourceVector(**values)
        except ValidationError as exc:
            raise TraceParseError(line_no, str(exc)) from None

    fields = _read_fields(obj, _NUMBER_READERS, line_no)
    if demand is None and fields["model_params_b"] <= 0.0:
        raise TraceParseError(
            line_no, "request without explicit demand must have model_params_b > 0"
        )
    try:
        return GptRequest(id=request_id, task_kind=kind, explicit_demand=demand, **fields)
    except ValidationError as exc:
        raise TraceParseError(line_no, str(exc)) from None


_raw_decode = json.JSONDecoder().raw_decode
_encode_record = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps' encoder, built once


def decode_json(text: str) -> object:
    """The JSON value text holds; a refusal is a ValueError with json.loads'
    message, nesting too deep for the interpreter's stack included."""

    try:
        try:
            obj, end = _raw_decode(text)
            if end == len(text):
                return obj
        except ValueError:
            pass
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None


def load_trace(source: TextStream) -> List[GptRequest]:
    """Read a JSON Lines trace from a path or text stream.

    Blank lines are skipped. Raises TraceParseError (with the 1-based line
    number) for malformed lines, unknown fields, constraint violations,
    duplicate request ids and text that is not UTF-8.
    """

    with open_text(source) as stream:
        requests: List[GptRequest] = []
        seen: Dict[str, int] = {}
        line_no = 0
        try:
            for line_no, line in enumerate(stream, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    obj = decode_json(text)
                except ValueError as exc:  # bad JSON, an integer past the digit limit, or nesting too deep
                    raise TraceParseError(line_no, f"invalid JSON: {getattr(exc, 'msg', exc)}") from None
                request = request_from_dict(obj, line_no)
                first = seen.setdefault(request.id, line_no)
                if first != line_no:
                    raise TraceParseError(
                        line_no, f"duplicate request id {echo(request.id)} (first seen on line {first})"
                    )
                requests.append(request)
        except UnicodeDecodeError as exc:
            # Text is decoded a block at a time, from the line after the last
            # one read; count the line endings (LF, CR LF, CR) before the byte.
            head, byte = exc.object[: exc.start], exc.object[exc.start]
            line_no += 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            raise TraceParseError(line_no, f"not valid UTF-8: byte 0x{byte:02x} ({exc.reason})") from None
        return requests


def write_trace(requests: Sequence[GptRequest], sink: TextStream) -> None:
    """Write requests as JSON Lines to a path or text stream, as reportio writes every output."""

    lines = (_encode_record(request_to_dict(request)) + "\n" for request in requests)
    write_chunks(map(str.encode, lines), sink)


def trace_to_string(requests: Sequence[GptRequest]) -> str:
    """The exact bytes write_trace would produce, as a string."""

    buffer = io.StringIO()
    write_trace(requests, buffer)
    return buffer.getvalue()
