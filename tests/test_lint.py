"""Static checks of the package source. No linter is a dependency, so the
checks it would make are kept here."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kqn"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read elsewhere in the module.
    `from __future__` imports and lines marked `# noqa: F401` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in bound.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


def test_finds_an_unused_import():
    source = (
        "import os\nimport sys  # noqa: F401\n"
        "from typing import Optional, Mapping\nx: Mapping\n"
    )
    assert unused_imports(source) == ["line 1: os", "line 3: Optional"]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
