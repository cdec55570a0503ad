"""Tooling guards.  No module of the package keeps a module-level import it
never uses (no linter is a dependency, so the check reads the syntax tree
itself; `__init__.py` is skipped: its imports are the package's re-exports),
and none uses `assert`, which `python -O` strips, as a runtime check.
No module sorts a graph's neighbour lists: `Graph` keeps them increasing.
Every function, class and method the package defines has a caller in the
package, so no helper is kept alive by tests alone.
No module imports numpy, which is not a dependency; in particular the
certificate path does not load it, which would add about 11 MB to the resident
size of a process that peaks near 22 MB."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nonrep"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_unused_imports_detected():
    assert unused_imports("import os\nfrom a import b as c, d\nprint(d)\n") == [
        "line 2: c",
        "line 1: os",
    ]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def uncalled_definitions(sources: dict[str, str]) -> list[str]:
    """The functions, classes and non-dunder methods defined in the modules
    of sources (name -> source text) that no module references outside the
    definition's own body, by a name, an attribute or an imported alias."""
    defs, refs = [], []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.append((module, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((module, node.attr, node.lineno))
            elif isinstance(node, ast.alias):
                refs.append((module, node.name, node.lineno))
    return [
        f"{module} line {first}: {name}"
        for module, name, first, last in defs
        if not any(ref == name and (where != module or not first <= line <= last)
                   for where, ref, line in refs)
    ]


def test_uncalled_definitions_detected():
    source = (
        "def countdown(n):\n"
        "    return countdown(n - 1) if n else 0\n"
        "def helper():\n"
        "    return 1\n"
        "class C:\n"
        "    def method(self):\n"
        "        return helper()\n"
        "    def unused(self):\n"
        "        return self.unused\n"
        "    def __repr__(self):\n"
        "        return 'C'\n"
        "C().method()\n"
    )
    assert uncalled_definitions({"a.py": source}) == ["a.py line 1: countdown", "a.py line 8: unused"]
    # an import from another module is a reference
    assert uncalled_definitions({"a.py": "def f():\n    pass\n", "b.py": "from .a import f as g\n"}) == []


def test_every_definition_has_a_caller_in_the_package():
    # __init__.py is skipped: its re-exports are no callers
    sources = {p.name: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    assert uncalled_definitions(sources) == []


def _sort_operands(tree):
    """(line, x) for every `sorted(x, ...)` and `x.sort(...)` call in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "sorted" and node.args:
                yield node.lineno, node.args[0]
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "sort":
                yield node.lineno, node.func.value


def adjacency_sorts(source: str) -> list[int]:
    """The lines of every sort of an expression that reads an `.adj`
    attribute, directly or through the target of a comprehension over one."""
    def reads(node, names=()):
        return any(isinstance(sub, ast.Attribute) and sub.attr == "adj"
                   or isinstance(sub, ast.Name) and sub.id in names for sub in ast.walk(node))

    tree = ast.parse(source)
    lines = {line for line, x in _sort_operands(tree) if reads(x)}
    for comp in ast.walk(tree):
        if isinstance(comp, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            names = {t.id for gen in comp.generators if reads(gen.iter)
                     for t in ast.walk(gen.target) if isinstance(t, ast.Name)}
            lines.update(line for line, x in _sort_operands(comp) if reads(x, names))
    return sorted(lines)


def test_adjacency_sorts_detected():
    source = (
        "a = sorted(g.adj[v])\n"
        "b = [sorted(x) for x in g.adj]\n"
        "c = sorted(u for u in h.adj[0] if u)\n"
        "g.adj[v].sort()\n"
        "d = sorted(g.edges())\n"
        "e = g.adj[v][0]\n"
        "f = [sorted(x) for x in rows]\n"
    )
    assert adjacency_sorts(source) == [1, 2, 3, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_sorts_an_adjacency(path):
    # Graph keeps each g.adj[u] increasing: the neighbour order has one owner
    assert adjacency_sorts(path.read_text()) == []


def asserts(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_asserts_detected():
    assert asserts("x = 1\nif x:\n    assert x, 'msg'\n") == [3]
    assert asserts("def f():\n    return 'assert'\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert asserts(path.read_text()) == []


def imported_roots(source: str) -> set[str]:
    """The top-level package of every absolute import, at any depth."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.add(node.module.split(".")[0])
    return roots


def test_imported_roots_detected():
    source = "import os.path\nfrom . import x\ndef f():\n    from numpy.linalg import norm\n"
    assert imported_roots(source) == {"os", "numpy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_imports(path):
    assert "numpy" not in imported_roots(path.read_text())


def test_certificate_path_imports_no_numpy():
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import nonrep\n"
        "spec = nonrep.BranchCheckSpec(2, nonrep.PowerFreeSpec(Fraction(19, 10), 2), 3)\n"
        "assert nonrep.certify_morphic_tree_coloring(nonrep.G2, spec).passed\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"
