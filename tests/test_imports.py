"""Every name a package module imports is used in that module, every
module-level private name it defines is referenced somewhere in the package,
and every public definition is read by the package, the benchmark or the
scripts, or is on an allow-list with its reason."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ucqrewrite"
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


def private_definitions(tree: ast.Module) -> set[str]:
    """Module-level private function, class and constant names (dunders excluded)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def references(tree: ast.Module) -> set[str]:
    """Names read as a name or as an attribute."""
    nodes = list(ast.walk(tree))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set().union(*map(references, trees.values()))
    return sorted(f"{name}:{d}" for name, tree in trees.items()
                  for d in private_definitions(tree) - used)


def test_checker_finds_unreferenced_private_names():
    sources = {"a.py": "_LIMIT = 3\n_DEAD: int = 4\n\ndef _helper():\n    return _LIMIT\n\n"
                       "class _Gone:\n    pass\n\ndef __getattr__(name):\n    pass\n",
               "b.py": "from . import a\n\ndef f():\n    return a._helper()\n"}
    assert unreferenced_private_names(sources) == ["a.py:_DEAD", "a.py:_Gone"]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def public_definitions(tree: ast.Module) -> dict[str, str]:
    """Public top-level function and class names, and the public methods of
    top-level classes as Class.method, each -> the name a reader reads."""
    out = {}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            out[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            out |= {f"{node.name}.{m.name}": m.name for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not m.name.startswith("_")}
    return out


def unread_public_names(defining: dict[str, str], readers: dict[str, str]) -> list[str]:
    """The public definitions in the defining sources that no reader reads
    as a name or an attribute.

    Names are matched bare, not by their class: a method counts as read
    when any attribute of its name is read, so one that shares its name
    with a read definition (a ``constants`` or ``sort_key`` of another
    class) is never reported."""
    used = set().union(*(references(ast.parse(s)) for s in readers.values()))
    return sorted(name for source in defining.values()
                  for name, read_as in public_definitions(ast.parse(source)).items()
                  if read_as not in used)


def test_checker_finds_unread_public_names():
    sources = {"a.py": "def used():\n    pass\n\ndef unused():\n    pass\n\n"
                       "class Box:\n    def get(self):\n        pass\n\n"
                       "    def put(self):\n        pass\n\n    def _own(self):\n        pass\n\n"
                       "class _Hidden:\n    def peek(self):\n        pass\n",
               "b.py": "from a import Box, used, unused\n\nused()\nBox().get()\n"}
    # importing unused is not reading it, as a re-export in __init__ is not
    readers = {"b.py": sources["b.py"]}
    assert unread_public_names(sources, readers) == ["Box.put", "_Hidden.peek", "unused"]


# public definitions that no package module, benchmark or script reads, each
# with what keeps it; a helper that only its own test calls is not on this list
UNREAD_PUBLIC = {
    "Document.fact_atoms": "the facts of a parsed document as one set, for callers that chase them",
    "equivalent": "homomorphic equivalence, the reference the tests compare covers by",
    "isomorphic": "isomorphism by canonical form, the reference the tests compare queries by",
    "cq": "the query constructor the tests and library callers build queries with",
    "ExistentialRule.head_atom": "the one head atom of an atomic-head rule, asserted by tests",
    "TermPartition.same_class": "class membership, the partition tests' observable",
    "saturate": "un-pruned k-saturation, the reference the cover is checked against",
    "PieceUnifier.cutpoints": "the paper's cutpoints, with pieces() the single-piece reference",
    "pieces": "the paper's pieces, the reference the single-piece unifiers are checked against",
}


def test_every_public_definition_is_read_or_allowed():
    defining = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    # __init__ only re-exports: a re-export is not a read
    readers = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in [*MODULES, *sorted((ROOT / "bench").glob("*.py")),
                         *sorted((ROOT / "scripts").glob("*.py"))]}
    assert unread_public_names(defining, readers) == sorted(UNREAD_PUBLIC)


# module -> the package modules it may import.  Each imports only modules
# below it, so kb, with the terms, queries and the one term map, imports none,
# and the matcher (homomorphism) sits beside the unification layer, not under it.
LAYERS = {
    "kb": set(),
    "partition": {"kb"},
    "unification": {"kb", "partition"},
    "homomorphism": {"kb"},
    "rewriting": {"kb", "homomorphism", "unification"},
    "dlgp": {"kb"},
    "chase": {"kb", "dlgp", "homomorphism"},
    "cli": {"kb", "dlgp", "rewriting", "chase"},
}


def package_imports(source: str) -> set[str]:
    """The package modules a module imports, relatively or by the package name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("ucqrewrite.")}
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if not node.level:
                if parts[:1] != ["ucqrewrite"]:
                    continue
                parts = parts[1:]
            out |= {parts[0]} if parts else {a.name for a in node.names}
    return out


def test_checker_finds_package_imports():
    source = ("import os\nimport ucqrewrite.chase\nfrom typing import Optional\n"
              "from . import kb\nfrom .partition import join\nfrom ucqrewrite import dlgp\n"
              "from ucqrewrite.homomorphism import core\n")
    assert package_imports(source) == {"chase", "kb", "partition", "dlgp", "homomorphism"}


def test_layers_name_every_module():
    assert set(LAYERS) == {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_only_the_modules_below_them(path):
    assert package_imports(path.read_text(encoding="utf-8")) - LAYERS[path.stem] == set()


def uses_cached_property(source: str) -> bool:
    """Whether the source imports or reads functools.cached_property, whose
    first access takes a lock on Python 3.11; kb.memo is the package's memo."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias) and node.name.split(".")[-1] == "cached_property":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "cached_property":
            return True
    return False


def test_checker_finds_cached_property():
    assert uses_cached_property("from functools import cached_property as cp\n")
    assert uses_cached_property("import functools\nx = functools.cached_property\n")
    assert not uses_cached_property("from functools import reduce\n")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_uses_cached_property(path):
    assert not uses_cached_property(path.read_text(encoding="utf-8"))
