"""Every name a package module imports is used in that module."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ucqrewrite"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read as a name.

    ``from __future__`` imports are compiler directives, not names.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\nimport os.path\nimport re as regex\n"
              "from typing import Iterable, Optional\n\ndef f(x: Iterable) -> None:\n"
              "    return os.path.join(x)\n")
    assert unused_imports(source) == ["Optional", "regex"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
