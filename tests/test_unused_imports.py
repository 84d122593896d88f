"""No module of the package imports a name it never uses, no private
module-level name goes unreferenced, and every name the package exports is
used somewhere.

No linter is part of the toolchain, so these tests do the three checks that
refactors most often leave behind.  __init__.py is exempt from the first:
it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "schreierkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no other node of source reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom .a import b, c as d\nd(os)\n") == ["b"]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> list[str]:
    """Module-level functions, classes and constants whose names start with
    one underscore."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def uses(source: str) -> set[str]:
    """Names that source reads or reads as attributes."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def references(source: str) -> set[str]:
    """Names that source reads, reads as attributes, or imports."""
    refs = uses(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each private module-level name no module refers to."""
    refs = set().union(*(references(src) for src in sources.values()))
    return [f"{mod}:{name}" for mod, src in sorted(sources.items())
            for name in private_definitions(src) if name not in refs]


def test_the_check_sees_an_unreferenced_private_name():
    sources = {"a": "_X = 1\n_Y: int = 2\ndef _f(): pass\nclass _C: pass\n__all__ = []\n_f()\n",
               "b": "from .a import _C\nimport a\na._Y\n"}
    assert unreferenced_private_names(sources) == ["a:_X"]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_private_names(sources) == []


def exported_names(source: str) -> list[str]:
    """The names an __init__ module imports to re-export."""
    return [alias.asname or alias.name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def unused_exports(init: str, sources: list[str]) -> list[str]:
    """Exported names that no source reads: an import or a definition alone
    does not count as a use."""
    used = set().union(*(uses(src) for src in sources))
    return [name for name in exported_names(init) if name not in used]


def test_the_check_sees_an_unused_export():
    init = "from .a import f, g\nfrom .b import C\n"
    sources = ["def f(): pass\ndef g(): f()\n",
               "from schreierkit import g\nclass C: pass\nx = C\n"]
    assert unused_exports(init, sources) == ["g"]


def test_every_export_is_used():
    # besides its definition and its export line, in src/, tests/ or perfbench/
    paths = MODULES + [p for tree in ("tests", "perfbench")
                       for p in sorted((ROOT / tree).glob("*.py"))]
    sources = [p.read_text(encoding="utf-8") for p in paths]
    assert unused_exports((SRC / "__init__.py").read_text(encoding="utf-8"), sources) == []
