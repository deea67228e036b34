"""Guard against dead helpers: every function, method and class defined in
`src/g2cubics` must be referenced somewhere in `src/`. A name that only the
tests use is not kept alive by them: library code serves a command or a
check. Dunder methods are called by the language and exempt.

A reference is a node of the syntax tree: a name (`act(...)`), an attribute
(`r.integers()`) or an imported name (`from .cubics import act`). Words in
strings, comments and longer identifiers do not count, so the method `degree`
is not kept alive by `formal_degree` or `residual_degree`. A method defined
in a class is reached only through an attribute, so only attributes count for
it: a local variable `order` does not keep the method `ComponentGroup.order`
alive. The scan is still by name, so a helper that shares its name with a
live one (a module function `det` next to a method `GroupElement.det`)
escapes it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "g2cubics"


def _definitions() -> set[tuple[str, bool]]:
    """(name, is a method) of every non-dunder definition in the package."""
    defs = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.add((node.name, id(node) in methods))
    return defs


def _references() -> tuple[Counter, Counter]:
    """(all references, attribute references) by name."""
    refs, attrs = Counter(), Counter()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
                attrs[node.attr] += 1
            elif isinstance(node, ast.alias):
                refs[node.name] += 1
    return refs, attrs


def test_every_definition_is_named_elsewhere():
    refs, attrs = _references()
    dead = sorted(name for name, method in _definitions() if (attrs if method else refs)[name] == 0)
    assert dead == []
