"""The formal-degree data against their closed forms.

`formal-degree` is compared, exit code and both streams, with dim sigma =
q (q-1)^2 (q^2-q+1) / 6 and gamma(0) = q^9 / ((q+1)^2 (q^2+q+1)) computed
here over Fractions, on a grid of q that holds the one rational pole of the
stored quotients, q = -1.  sympy's `cancel` shows that the stored quotients
reduce to these closed forms and that the L-factors are the product formula.
"""

import json
from fractions import Fraction

import pytest
import sympy

from g2cubics import rootdata
from g2cubics.cli import main

GRID = [str(n) for n in range(-3, 4)] + [
    "1/2",
    "-1/2",
    "7/3",
    "-2/3",
    "-1234567890123456789012345678901234567891/9876543210987654321098765432109876543211",
]


def closed_forms(text: str) -> tuple[Fraction, Fraction] | None:
    """(dim sigma, gamma(0)) at q = text, or None at a pole of gamma(0)."""
    q = Fraction(text)
    gamma_den = (q + 1) ** 2 * (q**2 + q + 1)
    if gamma_den == 0:
        return None
    return q * (q - 1) ** 2 * (q**2 - q + 1) / 6, q**9 / gamma_den


def test_the_pole_at_minus_one_is_the_only_error():
    assert [text for text in GRID if closed_forms(text) is None] == ["-1"]


@pytest.mark.parametrize("text", GRID)
def test_formal_degree_matches_the_closed_forms(capsys, text):
    text_run = main(["formal-degree", "--q", text]), *capsys.readouterr()
    json_run = main(["formal-degree", "--q", text, "--format", "json"]), *capsys.readouterr()
    values = closed_forms(text)
    if values is None:
        error = f"error: pole at q = {text}: denominator vanishes at q = {Fraction(text)}\n"
        assert text_run == json_run == (2, "", error)
        return
    dim_sigma, gamma0 = values
    assert text_run == (0, f"dim sigma = {dim_sigma}, gamma(0) = {gamma0}\n", "")
    payload = {"dim_sigma": str(dim_sigma), "gamma0": str(gamma0), "q": str(Fraction(text))}
    assert json_run == (0, json.dumps(payload, sort_keys=True, indent=2) + "\n", "")


Q = sympy.Symbol("q")


def to_sympy(f) -> sympy.Expr:
    """The stored quotient num / den of a `RationalFunctionQ`, uncancelled."""
    num, den = (sum(c * Q**i for i, c in enumerate(p.nums)) for p in (f.num, f.den))
    return num / den


def test_sympy_cancels_the_data_to_the_closed_forms():
    data = rootdata.adjoint_gamma_data()
    gamma0 = Q**9 / ((Q + 1) ** 2 * (Q**2 + Q + 1))
    dim_sigma = to_sympy(data.dim_sigma)
    assert sympy.fraction(dim_sigma)[1] != 6  # stored unreduced
    assert sympy.cancel(dim_sigma) == sympy.expand(Q * (Q - 1) ** 2 * (Q**2 - Q + 1) / 6)
    assert sympy.cancel(to_sympy(rootdata.dim_sigma_simplified()) - dim_sigma) == 0
    assert sympy.cancel(to_sympy(data.gamma0) - gamma0) == 0
    derived = data.epsilon_power(0) * (data.l_factor(1) / data.l_factor(0))
    assert sympy.cancel(to_sympy(derived) - gamma0) == 0
    for s in (0, 1, 2):
        product = 1 / ((1 - Q ** (-s - 2)) * (1 - Q ** (-s - 1)) ** 3)
        assert sympy.cancel(to_sympy(data.l_factor(s)) - product) == 0
