"""Only reportio opens files.

reportio.open_text reads every trace and config and reportio.write_chunks
replaces every output whole or not at all, so a file opened anywhere else
would skip those guarantees. This stdlib-only rule walks each other
package module with `ast` and fails on a call of the builtin open, of
os.open or io.open, or of a .open/.read_text/.read_bytes/.write_text/
.write_bytes method.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gptsched"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "reportio.py")
FILE_METHODS = frozenset({"open", "read_text", "read_bytes", "write_text", "write_bytes"})


def file_calls(source: str) -> List[str]:
    """The calls in source that open a file, as "line: name"."""

    found = []
    for node in ast.walk(ast.parse(source)):
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Name) and func.id == "open":
            found.append((node.lineno, "open"))
        elif isinstance(func, ast.Attribute) and func.attr in FILE_METHODS:
            found.append((node.lineno, "." + func.attr))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_the_rule_finds_every_kind_of_file_call() -> None:
    source = (
        "import io, os\n"
        "from pathlib import Path\n"
        "with open('a') as f:\n    pass\n"
        "os.open('b', os.O_RDONLY)\n"
        "io.open('c')\n"
        "Path('d').open()\n"
        "Path('e').read_text()\n"
        "Path('f').read_bytes()\n"
        "Path('g').write_text('x')\n"
        "Path('h').write_bytes(b'x')\n"
        "opener = open\n"
        "Path('i').mkdir()\n"
        "stream.read()\n"
        "stream.write('x')\n"
    )
    assert file_calls(source) == [
        "3: open", "5: .open", "6: .open", "7: .open", "8: .read_text",
        "9: .read_bytes", "10: .write_text", "11: .write_bytes",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_opens_no_file(path: Path) -> None:
    assert file_calls(path.read_text(encoding="utf-8")) == []
