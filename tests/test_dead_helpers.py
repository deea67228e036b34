"""Guard against dead helpers: every function, method and class defined in
`src/g2cubics` must be named somewhere other than its own definition, in
`src/` or `tests/`. Dunder methods are called by the language and exempt.

The scan is by name, so a helper that shares its name with a live one (a
module function `det` next to a method `GroupElement.det`) escapes it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "g2cubics"


def _definitions() -> Counter:
    names = Counter()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names[node.name] += 1
    return names


def _word_counts() -> Counter:
    words = Counter()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        words.update(re.findall(r"\w+", path.read_text()))
    return words


def test_every_definition_is_named_elsewhere():
    words = _word_counts()
    dead = sorted(name for name, n in _definitions().items() if words[name] <= n)
    assert dead == []
