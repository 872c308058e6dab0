"""Every name a pcurvkit module imports is used in that module, and every
private module-level name is used somewhere in pcurvkit.

A stdlib-only stand-in for a linter's unused-import check: each module
under src/pcurvkit except the re-exporting ``__init__.py`` is parsed with
``ast``, and an imported name that never appears as a name in the module
body fails the test.  A private name (one leading underscore) that a
module defines at top level and that no other top-level statement of any
module names, as a name, an attribute or an import, fails too: a helper
left behind when its callers moved away.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pcurvkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def orphaned_private_names(sources: dict) -> list[str]:
    """'module: name' for each private top-level name of the modules in
    sources (file name -> text) that only its own definition mentions."""
    defined, statements = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            used = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    used.add(n.id)
                elif isinstance(n, ast.Attribute):
                    used.add(n.attr)
                elif isinstance(n, ast.alias):
                    used.add(n.asname or n.name)
            statements.append((node, used))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, name, node) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    return sorted(f"{module}: {name}" for module, name, node in defined
                  if not any(name in used for other, used in statements if other is not node))


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unused_and_accepts_used():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from fractions import Fraction as F\n"
              "from math import gcd, lcm\n"
              "def f(x: F) -> int:\n"
              "    return gcd(x, os.path.sep)\n")
    assert unused_imports(source) == ["lcm (line 4)"]


def test_no_orphaned_private_names():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert orphaned_private_names(sources) == []


def test_scan_flags_orphaned_private_names():
    sources = {"a.py": ("_LIMIT = 3\n"
                        "def _used(x):\n    return _used(x - 1) if x else _LIMIT\n"
                        "def _orphan():\n    return _orphan()\n"
                        "def public():\n    return _used(2)\n"),
               "b.py": ("from .a import _attr_only\n"
                        "import a\n"
                        "def f():\n    return a._shared()\n"),
               "c.py": "def _shared():\n    pass\ndef _attr_only():\n    pass\n"}
    assert orphaned_private_names(sources) == ["a.py: _orphan"]
