"""Guard against dead helpers: every function, method and class defined in
`src/g2cubics` must be referenced somewhere in `src/`. A name that only the
tests use is not kept alive by them: library code serves a command or a
check. Dunder methods are called by the language and exempt.

A reference is a node of the syntax tree: a name (`act(...)`), an attribute
(`r.integers()`) or an imported name (`from .cubics import act`). Words in
strings, comments and longer identifiers do not count, so the method `degree`
is not kept alive by `formal_degree` or `residual_degree`. A method defined
in a class is reached only through an attribute, so only attributes count for
it: a local variable `label` does not keep the method `Irreducible.label`
alive. The scan is still by name, so a helper that shares its name with a
live one (a module function `det` next to a method `GroupElement.det`)
escapes it.

A second test closes that escape at run time. In a fresh process a profiler
starts before `g2cubics` is imported; then every non-`verify` case of
`tests/golden_cli.json`, `verify` in the sheaves, packets and g2 scopes, one
`verify --tamper-evs` and the geometry checks run, the last twice: pinned to
one CPU, so that every check runs in the profiled process, and on the CPUs the
process had, so that `run_checks` forks its worker. Every function and method
defined in the package, nested ones included, must have been called. Only
the protocol methods `__hash__`, `__repr__`, `__eq__`, `__setattr__` and
`__delattr__` are exempt. List the functions the sweep never calls with

    PYTHONPATH=src python tests/test_dead_helpers.py

and the lines of `src/` it never executes (a report, not a gate: the error
exits are meant to stay unreached) with

    PYTHONPATH=src python tests/test_dead_helpers.py --lines
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import types
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


# called by the language for hashing, printing, comparing and guarding
# attributes, so a sweep of commands need not reach them
EXEMPT = {"__hash__", "__repr__", "__eq__", "__setattr__", "__delattr__"}


def _functions() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> qualified name of every
    function and method defined in the package, except the exempt ones. A
    decorated function's code object starts at its first decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if child.name not in EXEMPT:
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = name
                visit(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def _sweep() -> None:
    """Run the command sweep; `g2cubics` is imported here, so that a hook
    installed before the call sees the imports too."""
    golden = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
    cases = [key.split() for key in golden if "verify" not in key.split()]
    cases += [["verify", "--scope", scope] for scope in ("sheaves", "packets", "g2")]
    cases.append(["verify", "--scope", "sheaves", "--tamper-evs"])
    from g2cubics import cli, packets, verify

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in cases:
            cli.main(argv)
    # the worker's calls stay in the worker, so the geometry checks run
    # once pinned to one CPU, which is serial and reaches every check
    # body, and once as found, which reaches the fork and the merge
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        verify.run_checks("geometry", packets.DERIVED)
    finally:
        os.sched_setaffinity(0, affinity)
    verify.run_checks("geometry", packets.DERIVED)


def _unreached() -> list[str]:
    """The functions of the package that the command sweep never calls; run
    it in a process that has not imported `g2cubics` yet."""
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        _sweep()
    finally:
        sys.setprofile(None)
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in called}
    return [
        f"{Path(path).relative_to(ROOT)}:{line} {name}"
        for (path, line), name in sorted(_functions().items())
        if (path, line) not in reached
    ]


def _code_lines(code: types.CodeType) -> set[int]:
    """The line numbers of a code object and of the code objects in it; a
    module's code has a line 0 of its own, which is left out."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _unexecuted_lines() -> list[str]:
    """The lines of the package that the command sweep never executes, by
    `sys.settrace`; run it in a process that has not imported `g2cubics`
    yet."""
    executed = set()
    paths = {}  # co_filename -> resolved path, or None outside the package

    def in_package(code):
        if code.co_filename not in paths:
            path = Path(code.co_filename).resolve()
            paths[code.co_filename] = str(path) if path.is_relative_to(PACKAGE) else None
        return paths[code.co_filename]

    def line(frame, event, arg):
        if event == "line":
            executed.add((paths[frame.f_code.co_filename], frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if in_package(frame.f_code) else None

    sys.settrace(call)
    try:
        _sweep()
    finally:
        sys.settrace(None)
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for n in sorted(_code_lines(compile(source, str(path), "exec"))):
            if (str(path), n) not in executed:
                out.append(f"{path.relative_to(ROOT)}:{n} {text[n - 1].strip()}")
    return out


def test_every_function_is_called_by_a_command():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, check=False
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


if __name__ == "__main__":
    report_lines = sys.argv[1:] == ["--lines"]
    entries = _unexecuted_lines() if report_lines else _unreached()
    sys.stdout.write("".join(f"{entry}\n" for entry in entries))
    sys.exit(1 if entries and not report_lines else 0)
