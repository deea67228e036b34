"""Guard against dead helpers: every function, method and class defined in
`src/g2cubics` must be referenced somewhere in `src/` or `tests/`. Dunder
methods are called by the language and exempt.

A reference is a node of the syntax tree: a name (`act(...)`), an attribute
(`r.integers()`) or an imported name (`from .cubics import act`). Words in
strings, comments and longer identifiers do not count, so the method `degree`
is not kept alive by `formal_degree` or `residual_degree`. The scan is still
by name, so a helper that shares its name with a live one (a module function
`det` next to a method `GroupElement.det`) escapes it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "g2cubics"


def _definitions() -> set[str]:
    names = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names.add(node.name)
    return names


def _references() -> Counter:
    refs = Counter()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
            elif isinstance(node, ast.alias):
                refs[node.name] += 1
    return refs


def test_every_definition_is_named_elsewhere():
    refs = _references()
    dead = sorted(name for name in _definitions() if refs[name] == 0)
    assert dead == []
