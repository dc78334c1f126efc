"""RNG pins, generator determinism, and trace round-trips."""

from __future__ import annotations

import io
import math

import pytest

from gptsched import (
    GeneratorSpec,
    GptRequest,
    LognormalSpec,
    ResourceVector,
    SplitMix64,
    TaskKind,
    TraceParseError,
    ValidationError,
    generate_synthetic,
    load_trace,
    request_from_dict,
    request_to_dict,
    trace_to_string,
    write_trace,
)
from gptsched.workload import MAX_TOKENS, MIN_TOKENS, _clamp_tokens


# Frozen outputs of the published SplitMix64 algorithm. The seed-0 head is
# the reference test vector from the original public-domain sources.
SEED0_HEAD = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4)
SEED42_HEAD = (
    0xBDD732262FEB6E95,
    0x28EFE333B266F103,
    0x47526757130F9F52,
    0x581CE1FF0E4AE394,
)
SEED42_UNIFORM0 = 0.7415648787718233


def test_splitmix64_reference_vectors() -> None:
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in SEED0_HEAD) == SEED0_HEAD
    rng = SplitMix64(42)
    assert tuple(rng.next_u64() for _ in SEED42_HEAD) == SEED42_HEAD


def test_uniform_uses_top_53_bits() -> None:
    assert SplitMix64(42).uniform() == SEED42_UNIFORM0
    assert SplitMix64(42).uniform() == (SEED42_HEAD[0] >> 11) * 2.0**-53
    rng = SplitMix64(7)
    for _ in range(1000):
        assert 0.0 <= rng.uniform() < 1.0


def test_normal_consumes_exactly_two_uniforms() -> None:
    a, b = SplitMix64(9), SplitMix64(9)
    a.normal()
    b.uniform()
    b.uniform()
    assert a.next_u64() == b.next_u64()


def test_normal_is_box_muller_cosine_branch() -> None:
    rng = SplitMix64(42)
    probe = SplitMix64(42)
    u1 = probe.uniform()
    u2 = probe.uniform()
    expected = math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)
    assert rng.normal() == expected


def test_exponential_by_inversion() -> None:
    rng = SplitMix64(42)
    assert rng.exponential(2.0) == -math.log(1.0 - SEED42_UNIFORM0) / 2.0


def test_lognormal_wraps_normal() -> None:
    a, b = SplitMix64(11), SplitMix64(11)
    assert a.lognormal(5.5, 0.8) == math.exp(5.5 + 0.8 * b.normal())


def test_pick_walks_cumulative_edges() -> None:
    # First seed-42 uniform is ~0.7416: below 0.9 but not 0.6, so index 1.
    assert SplitMix64(42).pick([0.6, 0.9, 1.0]) == 1
    assert SplitMix64(42).pick([0.8, 1.0]) == 0
    assert SplitMix64(42).pick([0.1, 0.2, 1.0]) == 2
    # A top edge slightly below the draw still resolves to the last index.
    assert SplitMix64(42).pick([0.1, 0.74]) == 1


def test_clamp_tokens_rounds_half_even_and_clamps() -> None:
    assert _clamp_tokens(2.5) == 2
    assert _clamp_tokens(3.5) == 4
    assert _clamp_tokens(0.2) == MIN_TOKENS
    assert _clamp_tokens(-5.0) == MIN_TOKENS
    assert _clamp_tokens(1e9) == MAX_TOKENS


def test_generator_spec_validation() -> None:
    with pytest.raises(ValidationError):
        GeneratorSpec(request_count=0)
    with pytest.raises(ValidationError):
        GeneratorSpec(seed=-1)
    with pytest.raises(ValidationError):
        GeneratorSpec(seed=1 << 64)
    with pytest.raises(ValidationError):
        GeneratorSpec(model_size_choices_b=((7.0, 0.5), (13.0, 0.4)))
    with pytest.raises(ValidationError):
        GeneratorSpec(model_size_choices_b=())
    with pytest.raises(ValidationError):
        GeneratorSpec(model_size_choices_b=((7.0, -0.1), (13.0, 1.1)))
    with pytest.raises(ValidationError):
        GeneratorSpec(arrival_rate_per_s=0.0)
    with pytest.raises(ValidationError):
        LognormalSpec(5.0, -0.1)


def test_generate_synthetic_count_and_ids() -> None:
    requests = generate_synthetic(GeneratorSpec(request_count=5, seed=1))
    assert [r.id for r in requests] == [f"req-{n:06d}" for n in range(1, 6)]
    for r in requests:
        assert r.explicit_demand is None
        assert r.model_params_b in (7.0, 13.0, 70.0)
        assert MIN_TOKENS <= r.prompt_tokens <= MAX_TOKENS
        assert MIN_TOKENS <= r.output_tokens <= MAX_TOKENS
        assert isinstance(r.task_kind, TaskKind)
        assert r.arrival_s is None and r.duration_s is None


def test_generate_synthetic_reruns_are_byte_identical() -> None:
    spec = GeneratorSpec(request_count=200, seed=12345, arrival_rate_per_s=2.0,
                         duration_dist=LognormalSpec(3.0, 0.5))
    first = trace_to_string(generate_synthetic(spec))
    second = trace_to_string(generate_synthetic(spec))
    assert first == second


def test_generate_synthetic_seed_changes_output() -> None:
    base = GeneratorSpec(request_count=50, seed=1)
    other = GeneratorSpec(request_count=50, seed=2)
    assert trace_to_string(generate_synthetic(base)) != trace_to_string(generate_synthetic(other))


def test_degenerate_model_mix() -> None:
    spec = GeneratorSpec(request_count=20, seed=3, model_size_choices_b=((42.5, 1.0),))
    assert all(r.model_params_b == 42.5 for r in generate_synthetic(spec))


def test_token_clamping_in_generator() -> None:
    # mu 15 pushes nearly every draw past the cap; mu -10 pushes below 1.
    high = GeneratorSpec(request_count=30, seed=4,
                         prompt_tokens_dist=LognormalSpec(15.0, 0.1),
                         output_tokens_dist=LognormalSpec(-10.0, 0.1))
    for r in generate_synthetic(high):
        assert r.prompt_tokens == MAX_TOKENS
        assert r.output_tokens == MIN_TOKENS


def test_arrivals_are_cumulative_and_nondecreasing() -> None:
    spec = GeneratorSpec(request_count=100, seed=5, arrival_rate_per_s=10.0)
    requests = generate_synthetic(spec)
    arrivals = [r.arrival_s for r in requests]
    assert all(a is not None and a > 0.0 for a in arrivals)
    assert arrivals == sorted(arrivals)


def test_durations_present_only_when_configured() -> None:
    spec = GeneratorSpec(request_count=10, seed=6, duration_dist=LognormalSpec(3.0, 0.5))
    requests = generate_synthetic(spec)
    assert all(r.duration_s is not None and r.duration_s > 0.0 for r in requests)


def test_arrival_draw_comes_after_per_request_fields() -> None:
    # Enabling arrivals must not disturb the first request's other fields.
    plain = generate_synthetic(GeneratorSpec(request_count=1, seed=8))[0]
    timed = generate_synthetic(GeneratorSpec(request_count=1, seed=8, arrival_rate_per_s=1.0))[0]
    assert (plain.model_params_b, plain.prompt_tokens, plain.output_tokens, plain.task_kind) == (
        timed.model_params_b, timed.prompt_tokens, timed.output_tokens, timed.task_kind
    )


def test_trace_round_trip_is_exact() -> None:
    requests = [
        GptRequest(
            id="r1",
            task_kind=TaskKind.CHAT,
            model_params_b=7.0,
            prompt_tokens=100,
            output_tokens=200,
            arrival_s=0.1 + 0.2,
            duration_s=1.0 / 3.0,
            deadline_s=1e308,
        ),
        GptRequest(
            id="r2",
            task_kind=TaskKind.OTHER,
            explicit_demand=ResourceVector(compute=12.5, memory_gib=0.1, storage_gib=0.0),
        ),
    ]
    buffer = io.StringIO()
    write_trace(requests, buffer)
    loaded = load_trace(io.StringIO(buffer.getvalue()))
    assert loaded == requests
    assert trace_to_string(loaded) == buffer.getvalue()


def test_trace_lines_are_compact_lf_json() -> None:
    text = trace_to_string(generate_synthetic(GeneratorSpec(request_count=2, seed=1)))
    lines = text.split("\n")
    assert text.endswith("\n") and lines[-1] == ""
    assert ": " not in lines[0] and ", " not in lines[0]
    assert lines[0].startswith('{"id":"req-000001","task_kind":')


def test_load_trace_skips_blank_lines() -> None:
    line = trace_to_string(generate_synthetic(GeneratorSpec(request_count=1, seed=1)))
    assert len(load_trace(io.StringIO("\n" + line + "   \n\n" + line.replace("req-000001", "req-x")))) == 2


def test_load_trace_reports_line_numbers() -> None:
    good = trace_to_string(generate_synthetic(GeneratorSpec(request_count=1, seed=1))).strip()
    bad = good.replace("req-000001", "req-2") + "\n\nnot json\n"
    with pytest.raises(TraceParseError) as excinfo:
        load_trace(io.StringIO(good + "\n" + bad))
    assert excinfo.value.line_no == 4
    assert str(excinfo.value).startswith("line 4: invalid JSON")


def test_load_trace_rejects_duplicate_ids_with_both_lines() -> None:
    line = trace_to_string(generate_synthetic(GeneratorSpec(request_count=1, seed=1)))
    with pytest.raises(TraceParseError) as excinfo:
        load_trace(io.StringIO(line + "\n" + line))
    assert excinfo.value.line_no == 3
    assert "first seen on line 1" in str(excinfo.value)


def _record(**overrides: object) -> dict:
    base: dict = {
        "id": "r1",
        "task_kind": "chat",
        "model_params_b": 7.0,
        "prompt_tokens": 10,
        "output_tokens": 20,
    }
    base.update(overrides)
    return base


def test_request_from_dict_strictness() -> None:
    assert request_from_dict(_record()).task_kind is TaskKind.CHAT

    with pytest.raises(TraceParseError, match="missing required field"):
        request_from_dict({k: v for k, v in _record().items() if k != "output_tokens"})
    with pytest.raises(TraceParseError, match="unknown fields"):
        request_from_dict(_record(priority=3))
    with pytest.raises(TraceParseError, match="unknown task_kind"):
        request_from_dict(_record(task_kind="poetry"))
    with pytest.raises(TraceParseError, match="must be an integer"):
        request_from_dict(_record(prompt_tokens=True))
    with pytest.raises(TraceParseError, match="must be a number"):
        request_from_dict(_record(model_params_b="7"))
    with pytest.raises(TraceParseError, match="must be finite"):
        request_from_dict(_record(arrival_s=float("inf")))
    with pytest.raises(TraceParseError, match="exactly keys"):
        request_from_dict(_record(demand={"compute": 1.0}))
    with pytest.raises(TraceParseError):
        request_from_dict(_record(demand={"compute": -1.0, "memory_gib": 0.0, "storage_gib": 0.0}))


def test_task_kinds_are_the_documented_five() -> None:
    # README "Trace format" lists exactly these kinds.
    documented = ("translation", "summarization", "qa", "chat", "other")
    assert tuple(kind.value for kind in TaskKind) == documented
    for kind in ("completion", "embedding"):
        line = '{"id":"r1","task_kind":"%s","model_params_b":7,"prompt_tokens":1,"output_tokens":1}' % kind
        with pytest.raises(TraceParseError, match="line 1"):
            load_trace(io.StringIO(line + "\n"))


def test_demand_params_coupling() -> None:
    with pytest.raises(TraceParseError, match="model_params_b > 0"):
        request_from_dict(_record(model_params_b=0.0))
    parsed = request_from_dict(
        _record(model_params_b=0.0, demand={"compute": 1.0, "memory_gib": 2.0, "storage_gib": 3.0})
    )
    assert parsed.explicit_demand == ResourceVector(compute=1.0, memory_gib=2.0, storage_gib=3.0)


def test_request_to_dict_omits_absent_optionals() -> None:
    parsed = request_from_dict(_record())
    assert list(request_to_dict(parsed)) == [
        "id", "task_kind", "model_params_b", "prompt_tokens", "output_tokens"
    ]
    timed = request_from_dict(_record(arrival_s=1.5, deadline_s=9.0))
    assert list(request_to_dict(timed)) == [
        "id", "task_kind", "model_params_b", "prompt_tokens", "output_tokens",
        "arrival_s", "deadline_s",
    ]


def test_id_that_utf8_cannot_encode_is_rejected_with_its_line() -> None:
    # A lone surrogate is valid JSON ("\ud800") but cannot be written as UTF-8.
    lines = '{"id":"ok","task_kind":"chat","model_params_b":7,"prompt_tokens":1,"output_tokens":1}\n'
    lines += '{"id":"req-\\ud800","task_kind":"chat","model_params_b":7,"prompt_tokens":1,"output_tokens":1}\n'
    with pytest.raises(TraceParseError, match="line 2: field 'id' must be encodable as UTF-8") as info:
        load_trace(io.StringIO(lines))
    assert info.value.line_no == 2


_OPEN_LINE = '{"id":"r1","task_kind":"chat","model_params_b":7.0,"prompt_tokens":10,"output_tokens":20'

# Each refusal's exact text, as the parser worded it before its fast paths;
# every one of these inputs misses the fast path and takes the full check.
PINNED_MESSAGES = {
    "trailing data": (_OPEN_LINE + '} {"id":"r2"}', "invalid JSON: Extra data"),
    "byte order mark": ("\ufeff" + _OPEN_LINE + "}", "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    "list task_kind": (_OPEN_LINE.replace('"chat"', '["chat"]') + "}", "unknown task_kind ['chat']"),
    "true as a number": (
        _OPEN_LINE.replace("7.0", "true") + "}", "field 'model_params_b' must be a number, got True"
    ),
    "prompt_tokens past the float range": (
        _OPEN_LINE.replace(":10,", f":{10**309},") + "}", f"field 'prompt_tokens' must be finite, got {10**309}"
    ),
    "missing field": (_OPEN_LINE.replace('"prompt_tokens":10,', "") + "}", "missing required field 'prompt_tokens'"),
    "unknown fields": (_OPEN_LINE + ',"zeta":1,"alpha":2}', "unknown fields ['alpha', 'zeta']"),
    "demand with extra keys": (
        _OPEN_LINE + ',"demand":{"compute":1,"memory_gib":1,"storage_gib":1,"gpu":1}}',
        "field 'demand' must have exactly keys ('compute', 'memory_gib', 'storage_gib')",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_MESSAGES))
def test_parse_refusals_keep_their_exact_text(case: str) -> None:
    line, message = PINNED_MESSAGES[case]
    with pytest.raises(TraceParseError) as info:
        load_trace(io.StringIO("\n" + line + "\n"))
    assert str(info.value) == f"line 2: {message}"


def test_byte_order_mark_in_a_file_is_refused_on_line_1(tmp_path) -> None:
    path = tmp_path / "bom.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + (_OPEN_LINE + "}\n").encode())
    with pytest.raises(TraceParseError) as info:
        load_trace(path)
    assert str(info.value) == "line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
@pytest.mark.parametrize("bad_line", [1, 3, 300])
def test_byte_that_is_not_utf8_is_reported_on_its_line(tmp_path, newline: bytes, bad_line: int) -> None:
    # Text is decoded a block at a time; line 300 lies well past the first block.
    lines = [(_OPEN_LINE.replace('"r1"', f'"r{n}"') + "}").encode() for n in range(1, 401)]
    lines[bad_line - 1] = lines[bad_line - 1].replace(b"chat", b"ch\xe9t")
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(newline.join(lines) + newline)
    with pytest.raises(TraceParseError) as info:
        load_trace(path)
    assert str(info.value) == f"line {bad_line}: not valid UTF-8: byte 0xe9 (invalid continuation byte)"


def test_truncated_utf8_at_the_end_is_reported_on_its_line(tmp_path) -> None:
    path = tmp_path / "truncated.jsonl"
    path.write_bytes((_OPEN_LINE + "}\n\n").encode() + b"\xe2\x82")
    with pytest.raises(TraceParseError) as info:
        load_trace(path)
    assert str(info.value) == "line 3: not valid UTF-8: byte 0xe2 (unexpected end of data)"
