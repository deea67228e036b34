"""Span recorder for the traced run.

The public functions of each g2cubics module are wrapped from outside. The
modules copy bindings (`from .cubics import act`), so every g2cubics module
namespace that holds a wrapped function is rebound, and each entry of
`verify.CHECKS` is wrapped to give one span per check. Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function) pairs traced at their layer boundary
LAYERS = {
    "linalg": ("kernel_basis", "invert", "solve", "rank", "det"),
    "cubics": ("act", "act_dual", "act_matrix", "classify", "discriminant", "divides", "rational_lines"),
    "conormal": (
        "pairing", "moment", "conormal_kernel", "stabilizer_dimension",
        "in_lambda_regular", "stabilizer_of_cubic", "microlocal_stabilizer",
    ),
    "sheaves": ("solve_ic_stalk_ranks", "geometric_multiplicity_matrix", "nevs", "fourier", "table_payload"),
    "packets": (
        "packet", "stable_virtual_character", "standard_module_change_of_basis",
        "express_in_standard_modules",
    ),
    "rootdata": ("adjoint_gamma_data", "formal_degree_values"),
    "verify": ("run_checks",),
    "cli": ("main", "build_parser"),
}
FUNCTIONS = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
SCOPES = ("geometry", "sheaves", "packets", "g2")
# the five checks with the most time of their own in a `verify` run
COSTLY_CHECKS = (
    "pairing-invariance",
    "classify-action-invariance",
    "discriminant-repeated-root-oracle",
    "pairing-trace-of-moment",
    "discriminant-equivariance",
)


class Tracer:
    """Wraps the traced functions; `enable`/`disable` swap the bindings."""

    def __init__(self):
        package = "g2cubics"
        self.names: list[str] = []
        self.name_of_check: dict[str, str] = {}
        self.spans: list[list[int]] = []  # [name, parent, op, start_ns, end_ns]
        self.op_id = -1
        self._stack: list[int] = []
        self._swaps: list[tuple[object, str, object, object]] = []  # (namespace, key, original, wrapper)
        self.missing: list[str] = []
        modules = [m for k, m in sorted(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for qualified in FUNCTIONS:
            mod_name, fn_name = qualified.split(".")
            mod = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(mod, fn_name, None)
            if original is None:
                self.missing.append(qualified)
                continue
            wrapper = self._wrap(qualified, original)
            for m in modules:
                for key, value in vars(m).items():
                    if value is original:
                        self._swaps.append((m, key, original, wrapper))
        verify = sys.modules[f"{package}.verify"]
        self._checks = verify.CHECKS
        self._plain_checks = list(self._checks)
        self._traced_checks = []
        for check_name, scope, fn in self._plain_checks:
            self.name_of_check[check_name] = scope
            self._traced_checks.append((check_name, scope, self._wrap(f"verify.check.{check_name}", fn)))

    def _wrap(self, qualified: str, fn):
        name_id = len(self.names)
        self.names.append(qualified)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            # one append per span, so a deadline signal between two
            # statements leaves at worst an unfinished span (end 0)
            span = [name_id, self._stack[-1] if self._stack else -1, self.op_id, 0, 0]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                self._stack.pop()

        traced.__name__ = getattr(fn, "__name__", qualified)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def enable(self, op_id: int) -> None:
        self.op_id = op_id
        self._stack = []
        for ns, key, _, wrapper in self._swaps:
            setattr(ns, key, wrapper)
        self._checks[:] = self._traced_checks

    def disable(self) -> None:
        for ns, key, original, _ in self._swaps:
            setattr(ns, key, original)
        self._checks[:] = self._plain_checks

    def summary(self) -> tuple[dict[str, int], dict[str, int]]:
        """Calls and self time (ns) per span name."""
        # a span cut off by a deadline signal before its `try` keeps end 0
        ends = [s[4] or s[3] for s in self.spans]
        self_ns = self_times([s[3] for s in self.spans], ends, [s[1] for s in self.spans])
        calls: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for s, t in zip(self.spans, self_ns):
            calls[self.names[s[0]]] += 1
            own[self.names[s[0]]] += t
        return calls, own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "names": self.names,
            "fields": ["name", "parent", "op", "start_ns", "end_ns"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(data, separators=(",", ":")))


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the durations of its children. The
    wrappers nest on one thread and a child's `finally` closes it before its
    parent's, so the children of a span never overlap or outlive it."""
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out
