"""Every name a pcurvkit module imports is used in that module, every
private module-level name is used somewhere in pcurvkit, and every public
top-level function or class is reached by something besides its tests.

A stdlib-only stand-in for a linter's unused-import check: each module
under src/pcurvkit except the re-exporting ``__init__.py`` is parsed with
``ast``, and an imported name that never appears as a name in the module
body fails the test.  A private name (one leading underscore) that a
module defines at top level and that no other top-level statement of any
module names, as a name, an attribute or an import, fails too: a helper
left behind when its callers moved away.  A public top-level function or
class must be named by another statement of a module (the re-exports of
``__init__.py`` do not count), by the acceptance criteria, by a console
script of pyproject.toml or by a span target of the benchmark tracer:
otherwise only its own tests reach it.  A public method of a public class
must likewise be called by another statement of a module (``obj.name(...)``)
or named there in a ``getattr``/``hasattr`` string, or be used as an
attribute by the acceptance criteria or by a span target; a property or
classmethod counts as reached by any attribute use (``obj.name``).  A bare
name or a docstring does not count, as the same words name locals and
prose, and neither does a read of another class's property of the same
name for a plain method.  Finally, only linalg.py runs elimination: no
other module names its fraction-free passes, and only fields.py runs a
square-and-multiply loop (shifts an exponent right in place).  And the
two modules no answer uses, intervals.py and laurent.py, stay out of a
tool's start-up: ``import pcurvkit.cli`` neither compiles nor runs them.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pcurvkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# Public names no answer reaches that stay for now, each with its reason.
UNREACHED_MODULES = {
    "intervals.py": "float-seeded root enclosures no answer uses; the module goes "
                    "whole once the benchmark tracer drops its intervals spans",
    "laurent.py": "truncated Laurent series no answer uses; the module goes whole "
                  "once the benchmark tracer drops its laurent spans",
}
UNREACHED_NAMES = {
    "p_curvature_at": "the public value of psi_p at one point, the reference "
                      "test_connection.py checks the point values and the kernel against",
}
UNREACHED_METHODS = {
    "Matrix.kernel_basis": "the kernel of a matrix, the reference test_linalg.py "
                           "checks rank and inconsistent solves against",
    "Matrix.rank": "the rank of a matrix, the reference test_linalg.py checks "
                   "rref's pivots and the forward pass against",
}
# linalg's fraction-free elimination passes: other modules hand it rows
# through _solve_integer or _first_dependency and never run a pass themselves.
ELIMINATION_PASSES = {"_integer_forward", "_integer_upward", "_cleared_rows"}


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


def imported_modules(tree) -> set:
    """The names tree binds to modules: ``import x`` and ``from . import x``."""
    modules = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0] for alias in n.names)
        elif isinstance(n, ast.ImportFrom) and n.module is None:
            modules.update(alias.asname or alias.name for alias in n.names)
    return modules


def mentioned_names(node, modules: set) -> set:
    """Names node mentions: as a name, an import, or an attribute of one of
    the modules (``specdoc.load_spec``), not of any other object, so a
    method call ``rho.evaluate(w)`` does not reach a function evaluate."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.alias):
            used.add(n.asname or n.name)
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in modules):
            used.add(n.attr)
    return used


def unreached_public_names(sources: dict, outside: set) -> list[str]:
    """'module: name' for each public top-level function or class of the
    modules in sources (file name -> text) that no other top-level
    statement names and that is not in outside."""
    defined, statements = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        modules = imported_modules(tree)
        for node in tree.body:
            statements.append((node, mentioned_names(node, modules)))
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.append((module, node.name, node))
    return sorted(f"{module}: {name}" for module, name, node in defined
                  if name not in outside
                  and not any(name in used for other, used in statements if other is not node))


def called_names(node) -> set:
    """Names node calls as a method (``x.name(...)``), or uses as the string
    of a getattr or hasattr call."""
    used = set()
    for n in ast.walk(node):
        if not isinstance(n, ast.Call):
            continue
        if isinstance(n.func, ast.Attribute):
            used.add(n.func.attr)
        elif (isinstance(n.func, ast.Name) and n.func.id in ("getattr", "hasattr")
              and len(n.args) > 1 and isinstance(n.args[1], ast.Constant)):
            used.add(n.args[1].value)
    return used


def attribute_names(node) -> set:
    """Names node uses as an attribute, or as the string of a getattr or
    hasattr call."""
    return called_names(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def unreached_public_methods(sources: dict, outside: tuple) -> list[str]:
    """'module: Class.name' for each public method or property of a public
    top-level class of the modules in sources that no other statement
    reaches: a plain method must be called (called_names), and a property
    or classmethod, the decorated methods, may be used as any attribute
    (attribute_names).  outside is one more statement's pair of those
    sets, (attributes, calls).  Each method of a class is a statement of
    its own, so a method reached only from inside itself is flagged."""
    defined, statements = [], [(None, *outside)]
    for module, source in sources.items():
        for node in ast.parse(source).body:
            items = node.body if isinstance(node, ast.ClassDef) else [node]
            for item in items:
                statements.append((item, attribute_names(item), called_names(item)))
                if (isinstance(node, ast.ClassDef)
                        and isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_") and not item.name.startswith("_")):
                    defined.append((module, node.name, item))

    def reached(item):
        return any(item.name in (attributes if item.decorator_list else calls)
                   for other, attributes, calls in statements if other is not item)

    return sorted(f"{module}: {cls}.{item.name}" for module, cls, item in defined
                  if not reached(item))


def elimination_outside_linalg(sources: dict) -> list[str]:
    """'module: name' for each of ELIMINATION_PASSES that a module in
    sources other than linalg.py names, as a name, an import (under its
    own name or an alias) or an attribute; strings do not count."""
    found = set()
    for module, source in sources.items():
        if module == "linalg.py":
            continue
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name):
                names = {n.id}
            elif isinstance(n, ast.alias):
                names = {n.name, n.asname}
            elif isinstance(n, ast.Attribute):
                names = {n.attr}
            else:
                continue
            found.update(f"{module}: {name}" for name in names & ELIMINATION_PASSES)
    return sorted(found)


def power_loops_outside_fields(sources: dict) -> list[str]:
    """Each module in sources, other than fields.py, that shifts a name
    right in place (``e >>= 1``), the step of a square-and-multiply loop:
    fields._power is the one power loop."""
    return sorted(
        module for module, source in sources.items() if module != "fields.py"
        and any(isinstance(n, ast.AugAssign) and isinstance(n.op, ast.RShift)
                for n in ast.walk(ast.parse(source))))


def load_tracer():
    """perfbench/tracer.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def attributes_reached_from_outside() -> tuple:
    """(attributes, calls): the names the acceptance criteria use as
    attributes and those they call, each with the last part of each span
    target of the benchmark tracer, which wraps a method however it is
    reached."""
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    spans = {path.split(".")[-1] for _, path in load_tracer().SPAN_TARGETS}
    return attribute_names(acceptance) | spans, called_names(acceptance) | spans


def names_reached_from_outside() -> set:
    """Names the acceptance criteria, the console scripts and the benchmark
    tracer's span targets mention."""
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    names = mentioned_names(acceptance, imported_modules(acceptance))
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1].split("\n[")[0]
    names.update(re.findall(r':(\w+)"', scripts))
    names.update(part for _, path in load_tracer().SPAN_TARGETS for part in path.split("."))
    return names


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


def test_every_public_name_is_reached():
    sources = {p.name: p.read_text() for p in MODULES}
    outside = names_reached_from_outside()
    assert {"pcurv_main", "certify_finiteness", "load_spec"} <= outside
    flagged = [f.split(": ") for f in unreached_public_names(sources, outside)]
    assert [f"{module}: {name}" for module, name in flagged
            if module not in UNREACHED_MODULES and name not in UNREACHED_NAMES] == []
    # an exemption goes when its module or its name does
    assert set(UNREACHED_MODULES) <= set(sources)
    assert set(UNREACHED_NAMES) <= {name for _, name in flagged}


def test_scan_flags_unreached_public_names():
    sources = {"a.py": ("def helper():\n    return helper()\n"
                        "def orphan(rho):\n    return rho.helper()\n"
                        "class Traced:\n    pass\n"),
               "b.py": ("from . import a\n"
                        "def caller(rho):\n    return a.helper(), rho.orphan()\n")}
    assert unreached_public_names(sources, {"Traced"}) == ["a.py: orphan", "b.py: caller"]


def test_every_public_method_is_reached():
    sources = {p.name: p.read_text() for p in MODULES}
    outside = attributes_reached_from_outside()
    assert all({"rref", "reduce_mod", "inverse"} <= names for names in outside)
    flagged = [f.split(": ") for f in unreached_public_methods(sources, outside)]
    assert [f"{module}: {name}" for module, name in flagged
            if module not in UNREACHED_MODULES and name not in UNREACHED_METHODS] == []
    # an exemption goes when its method does
    assert set(UNREACHED_METHODS) <= {name for _, name in flagged}


def test_scan_flags_unreached_public_methods():
    sources = {"a.py": ("class Family:\n"
                        "    def layer(self, k):\n        return self.layer(k - 1)\n"
                        "    @property\n    def order(self):\n        return 1\n"
                        "    def traced(self):\n        pass\n"
                        "    def probed(self):\n        pass\n"
                        "    def _private(self):\n        pass\n"
                        "    def rank(self):\n        return 2\n"
                        "    def called(self):\n        pass\n"
                        "    @classmethod\n    def build(cls):\n        return cls\n"
                        "class Group:\n"
                        "    @property\n    def rank(self):\n        return 3\n"
                        "class _Hidden:\n    def shown(self):\n        pass\n"),
               "b.py": ("from .a import Family\n"
                        "def size(F, G, blocks):\n"
                        "    \"\"\"Each layer of F.\"\"\"\n"
                        "    return F.order, blocks, hasattr(F, 'probed'), G.rank, F.called()\n"
                        "make = Family.build\n")}
    # Family.rank is only read as Group.rank, a property: a plain method
    # is reached by a call, not by a read of an attribute of its name
    assert unreached_public_methods(sources, ({"traced"}, {"traced"})) == [
        "a.py: Family.layer", "a.py: Family.rank"]


def test_only_linalg_eliminates():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert "linalg.py" in sources
    assert elimination_outside_linalg(sources) == []


def test_only_fields_runs_a_power_loop():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert "fields.py" in sources
    assert power_loops_outside_fields(sources) == []


def test_scan_flags_power_loops_outside_fields():
    loop = "def f(x, e):\n    while e:\n        e >>= 1\n    return x\n"
    sources = {"fields.py": loop, "a.py": loop, "b.py": "y = x >> 1\ns = '>>='\n"}
    assert power_loops_outside_fields(sources) == ["a.py"]


def test_scan_flags_elimination_outside_linalg():
    sources = {"linalg.py": ("def _cleared_rows(rows):\n    return rows\n"
                             "def _integer_forward(rows, n):\n    return _cleared_rows(rows)\n"),
               "a.py": ("\"\"\"Runs linalg._integer_upward by hand.\"\"\"\n"
                        "from . import linalg\n"
                        "from .linalg import _integer_forward as forward, _solve_integer\n"
                        "def f(rows):\n"
                        "    return forward(rows, 2), linalg._cleared_rows(rows)\n"),
               "b.py": "step = _integer_upward\n",
               "c.py": "from .linalg import _solve_integer\nsolve = _solve_integer\n"}
    assert elimination_outside_linalg(sources) == [
        "a.py: _cleared_rows", "a.py: _integer_forward", "b.py: _integer_upward"]


LAZY_PROBE = """
import sys
import pcurvkit.cli
print(sorted(m for m in ("pcurvkit.intervals", "pcurvkit.laurent") if m in sys.modules))
from pcurvkit import RatInterval, TruncatedLaurentSeries
print(RatInterval.__module__, TruncatedLaurentSeries.__module__)
"""


def test_cli_start_up_leaves_intervals_and_laurent_unloaded():
    """A fresh interpreter that imports the CLI has loaded neither module;
    the package still exports their names, and the first use loads them."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "pcurvkit.intervals pcurvkit.laurent"]
