"""Every private name a package module defines is used in that module.

A stdlib-only stand-in for a linter's dead-code rule: a module-level
_name (a function, class or assigned name) must be loaded somewhere in
its module, and a private method must be referenced as an attribute
somewhere in its module. Dunder names are not private. A private name only
a test or another module uses is dead code of its own module, too.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gptsched"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def dead_private_names(source: str) -> List[str]:
    """The private names source defines and never uses, as "line: name"."""

    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name, "load"))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined.append((name.lineno, name.id, "load"))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.append((member.lineno, member.name, "attribute"))
    loaded = set()
    attributes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return [
        f"{line}: {name}"
        for line, name, use in defined
        if _private(name) and name not in (loaded if use == "load" else attributes)
    ]


def test_the_rule_finds_dead_private_names() -> None:
    source = (
        "_USED, _UNUSED = 1, 2\n"
        "def _helper() -> int:\n    return _USED\n"
        "def _orphan() -> None:\n    pass\n"
        "class _Thing:\n"
        "    def __init__(self) -> None:\n        self._go()\n"
        "    def _go(self) -> None:\n        _helper()\n"
        "    def _stale(self) -> None:\n        pass\n"
        "def public() -> _Thing:\n    return _Thing()\n"
    )
    assert dead_private_names(source) == ["1: _UNUSED", "4: _orphan", "11: _stale"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_dead_private_names(path: Path) -> None:
    assert dead_private_names(path.read_text(encoding="utf-8")) == []
