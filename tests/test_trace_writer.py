"""write_trace goes through reportio's one writer.

A path is replaced whole or not at all, a symbolic link's target is
written, and a stream receives the same text trace_to_string returns.
"""

from __future__ import annotations

import errno
import io
import os

import pytest

from gptsched import GeneratorSpec, generate_synthetic, reportio, trace_to_string, write_trace
from gptsched.cli import main

REQUESTS = generate_synthetic(GeneratorSpec(request_count=5, seed=3, arrival_rate_per_s=2.0))


class FullDisk:
    """A file whose third write fails as a full disk would."""

    def __init__(self, stream) -> None:
        self.stream, self.writes = stream, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.stream.close()

    def write(self, chunk) -> int:
        self.writes += 1
        if self.writes == 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.stream.write(chunk)

    def writelines(self, chunks) -> None:
        for chunk in chunks:
            self.write(chunk)


def test_write_error_leaves_an_existing_trace(tmp_path, monkeypatch) -> None:
    real_open = open
    monkeypatch.setattr(reportio, "open", lambda *args, **kw: FullDisk(real_open(*args, **kw)), raising=False)
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"previous trace\n")
    with pytest.raises(OSError, match="No space left"):
        write_trace(REQUESTS, path)
    assert path.read_bytes() == b"previous trace\n"
    assert os.listdir(tmp_path) == ["trace.jsonl"]


def test_stream_sink_receives_trace_to_string() -> None:
    stream = io.StringIO()
    write_trace(REQUESTS, stream)
    assert stream.getvalue() == trace_to_string(REQUESTS)
    assert stream.getvalue().count("\n") == len(REQUESTS)


def test_gen_through_a_symlink_writes_its_target(tmp_path) -> None:
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "target.jsonl"
    target.write_text("previous trace\n", encoding="utf-8")
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    direct = tmp_path / "direct.jsonl"
    for out in (link, direct):
        assert main(["gen", "--count", "7", "--seed", "5", "--out", str(out)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == direct.read_bytes()
    assert sorted(os.listdir(tmp_path / "real")) == ["target.jsonl"]
