"""Each cubic derives its Hessian, orbit and rational split once.

`cubics._kept` keeps the three facts on the cubic that derived them. The
counts here come from a profile hook on the code of the three deriving
functions, so they see every derivation and change nothing. Kept facts on
module constants such as `REPRESENTATIVES` last for the whole process, so
every count is taken on fresh cubics.
"""

import contextlib
import importlib.util
import io
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from g2cubics import cli, cubics
from g2cubics.conormal import (
    ConormalPoint,
    canonical_regular_pairs,
    conormal_kernel,
    microlocal_stabilizer,
    stabilizer_of_cubic,
)
from g2cubics.cubics import (
    BinaryCubic,
    DualCubic,
    GroupElement,
    OrbitClass,
    act,
    act_dual,
    classify,
    rational_lines,
)
from g2cubics.linalg import format_rational

# the deriving functions under the `_kept` wrappers, by the code they run
_DERIVATIONS = {
    f.__wrapped__.__code__: name
    for name, f in (
        ("hessian", cubics._hessian_integers),
        ("orbit", cubics.classify),
        ("split", cubics._split),
    )
}


@contextlib.contextmanager
def derivations():
    """Count each derivation by (fact, kind and value of the cubic)."""
    counts = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in _DERIVATIONS:
            r = frame.f_locals["r"]
            counts[_DERIVATIONS[frame.f_code], type(r).__name__, r.integers()] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield counts
    finally:
        sys.setprofile(previous)


def _workloads():
    """perfbench/workloads.py, whose constructions build the benchmark's cubics."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _main(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([*argv, "--format", "json"])


def test_cli_commands_derive_each_fact_once_per_input():
    workloads = _workloads()
    rng = random.Random(1600)
    for kind in workloads.CONSTRUCTIONS:
        r = BinaryCubic(*workloads.cubic(kind, 1000, rng)["r"])
        s = sum(conormal_kernel(r), DualCubic(0, 0, 0, 0))  # a point of the fibre over r
        coeffs = [format_rational(c) for c in r.coeffs]
        pair = coeffs + [format_rational(c) for c in s.coeffs]
        for argv in (["classify", *coeffs], ["stabilizer", *coeffs], ["kernel", *coeffs],
                     ["lambda-regular", *pair]):
            with derivations() as counts:
                code = _main(*argv)
            assert code == (2 if argv[0] == "stabilizer" and kind in ("line-quadratic", "eisenstein") else 0)
            assert counts and max(counts.values()) == 1, (kind, argv[0], counts.values())
            assert counts["orbit", "BinaryCubic", r.integers()] == 1
            # the residue test certifies C3 without the Hessian, which only
            # `classify` prints
            hessians = counts["hessian", "BinaryCubic", r.integers()]
            if argv[0] == "classify":
                assert hessians == 1
            elif classify(r) is OrbitClass.C3:
                assert hessians == 0, (kind, argv[0])


@pytest.mark.parametrize("stratum", range(4))
def test_microlocal_stabilizer_derives_each_fact_once_per_cubic(stratum):
    g = GroupElement(Fraction(10**999 + 7, 3**2000), 1 - 10**1000, Fraction(2, 3), 10**1000)
    base = canonical_regular_pairs()[stratum]
    p = ConormalPoint(act(g, base.r), act_dual(g, base.s))
    with derivations() as counts:
        assert len(microlocal_stabilizer(p).generators) == (6 if stratum in (0, 3) else 1)
    assert max(counts.values()) == 1
    # the side carrying the lines is split once, and both sides are classified
    split_side = p.s if stratum < 2 else p.r
    assert counts["split", type(split_side).__name__, split_side.integers()] == 1
    assert counts["orbit", "BinaryCubic", p.r.integers()] == 1
    assert counts["orbit", "DualCubic", p.s.integers()] == 1


def test_a_moved_cubic_keeps_no_facts_even_when_it_equals_the_input():
    r = BinaryCubic(0, Fraction(-1, 3), Fraction(-1, 3), 0)  # x y (x + y), fresh
    assert classify(r) is OrbitClass.C3 and rational_lines(r)[1] == 0
    generators = stabilizer_of_cubic(r).generators
    assert vars(r)
    for h in [GroupElement.identity(), *generators]:
        moved = act(h, r)
        assert moved == r and vars(moved) == {}
        with derivations() as counts:
            assert classify(moved) is OrbitClass.C3
        assert counts["orbit", "BinaryCubic", r.integers()] == 1
    s = DualCubic(1, 2, 3, 4)
    classify(s)
    moved = act_dual(GroupElement.identity(), s)
    assert moved == s and vars(moved) == {}


def test_a_c3_cubic_whose_discriminant_the_prime_divides_derives_the_hessian():
    coeffs = ["0", f"-{cubics._P}/3", "1/3", "0"]  # x y (P y - x)
    for command in ("classify", "kernel", "stabilizer"):
        with derivations() as counts:
            assert _main(command, *coeffs) == 0
        assert counts["hessian", "BinaryCubic", BinaryCubic(*coeffs).integers()] == 1


def test_a_kept_line_cannot_be_changed():
    r = BinaryCubic(6, Fraction(35, 3), 18, -35)
    split = repr(rational_lines(r))
    line = rational_lines(r)[0][0][0]
    with pytest.raises(AttributeError):
        line.u2 = 99
    for name in ("u1", "u2"):
        with pytest.raises(AttributeError):
            setattr(line, name, 0)
        with pytest.raises(AttributeError):
            delattr(line, name)
    assert repr(rational_lines(r)) == split == "([(Line[1:1/2], 1), (Line[1:-5/3], 1), (Line[1:7], 1)], 0)"


def test_a_returned_line_list_does_not_alias_the_kept_split():
    for r in (BinaryCubic(6, Fraction(35, 3), 18, -35), BinaryCubic(45, 1, Fraction(64, 3), 28)):
        lines, residual = rational_lines(r)
        snapshot = list(lines)
        assert len(snapshot) in (2, 3) and residual == 0
        lines.reverse()
        lines.append(lines[0])
        assert rational_lines(r) == (snapshot, 0)
        lines.clear()
        assert rational_lines(r) == (snapshot, 0)
