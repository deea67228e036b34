"""Guard against choosing a component group by hand: outside `verify`, no
module of `src/g2cubics` compares a value with a group name, and no
conditional expression picks one of two group names. Each group is named by
the data that carries it instead: the Arthur record of each parameter in
`rootdata.ARTHUR_PARAMETERS`, and the base stabilizer of each conormal
stratum in `conormal._BASES`. The checks in `verify` compare those two
sources, so they may name the groups they expect.

The scan walks the syntax tree, so names in strings, comments and
docstrings do not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "g2cubics"
GROUP_NAMES = {"trivial", "S2", "S3"}


def _is_group_name(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value in GROUP_NAMES


def _choices() -> list[str]:
    """file:line of every comparison with a group name and every
    conditional expression between two group names."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.stem == "verify":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                chosen = any(_is_group_name(op) for op in [node.left, *node.comparators])
            elif isinstance(node, ast.IfExp):
                chosen = _is_group_name(node.body) and _is_group_name(node.orelse)
            else:
                continue
            if chosen:
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    return found


def test_no_module_chooses_a_group_by_its_name():
    assert _choices() == []
