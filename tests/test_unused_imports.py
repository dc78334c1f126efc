"""Every name a package module imports is used in that module.

A stdlib-only stand-in for a linter's unused-import rule (F401): a name
bound by an import statement must appear as a name somewhere else in the
module or in its __all__. __init__.py is skipped, because its imports are
re-exports, and so is any import whose line carries "# noqa: F401".
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gptsched"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> List[str]:
    """The imported names source never uses, as "line: name"."""

    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in getattr(node.value, "elts", ()) if isinstance(elt, ast.Constant))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if any("# noqa: F401" in lines[n - 1] for n in (node.lineno, alias.lineno)):
                    continue
                name = alias.asname or alias.name.partition(".")[0]
                imported.append((alias.lineno, name))
    return [f"{line}: {name}" for line, name in imported if name not in used]


def test_the_rule_finds_an_unused_import_and_honours_noqa() -> None:
    source = (
        "import os\n"
        "import os.path as osp\n"
        "from typing import (\n    List,\n    Set,\n)\n"
        "from json import dumps  # noqa: F401  re-exported\n"
        "def f(x: List[int]) -> None:\n    return os.sep\n"
    )
    assert unused_imports(source) == ["2: osp", "5: Set"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_unused_imports(path: Path) -> None:
    assert unused_imports(path.read_text(encoding="utf-8")) == []
