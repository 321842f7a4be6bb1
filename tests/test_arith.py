"""Oracle tests for the ternary quadratic solver in nilqp._arith.

Every returned (x, y, z) is checked against a x^2 + b y^2 + c z^2 = 0 in
`fractions.Fraction`; equations built from a known nonzero solution must be
solved.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilqp._arith import solve_ternary
from nilqp.scalars import Rational


def _frac(v):
    return Fraction(v.num, v.den) if isinstance(v, Rational) else Fraction(v)


def assert_solution(coeffs, sol):
    assert sol is not None, coeffs
    assert all(isinstance(x, int) for x in sol), sol
    assert any(sol), (coeffs, sol)
    assert sum(_frac(c) * x * x for c, x in zip(coeffs, sol)) == 0, (coeffs, sol)


def _from_solution(a, b, x, y, z):
    """(a, b, c) with c chosen so that a x^2 + b y^2 + c z^2 = 0."""
    return a, b, Rational(-1, z * z) * (a * x * x + b * y * y)


nonzero = st.integers(-60, 60).filter(bool)


@settings(max_examples=150, deadline=None)
@given(nonzero, nonzero, nonzero, nonzero, nonzero)
def test_equation_with_known_solution_is_solved(a, b, x, y, z):
    coeffs = _from_solution(a, b, x, y, z)
    assert_solution(coeffs, solve_ternary(*coeffs))


def test_seeded_equations_with_known_solutions():
    # Larger coefficients and rational a, b: the squarefree split and the
    # descent both have work to do.
    rng = random.Random(20240611)
    for _ in range(300):
        a = Rational(rng.choice([-1, 1]) * rng.randrange(1, 2000), rng.randrange(1, 30))
        b = Rational(rng.choice([-1, 1]) * rng.randrange(1, 2000), rng.randrange(1, 30))
        x, y, z = (rng.randrange(1, 200) * rng.choice([-1, 1]) for _ in range(3))
        coeffs = _from_solution(a, b, x, y, z)
        assert_solution(coeffs, solve_ternary(*coeffs))


@pytest.mark.parametrize(
    "coeffs",
    [
        (1, 1, -2),  # (1, 1, 1)
        (1, -1, 5),  # (1, 1, 0)
        (3, 5, -8),
        (2, 7, -9),  # (1, 1, 1)
        (Rational(1, 2), Rational(-1, 3), Rational(-1, 6)),
        (5, 0, -3),  # a zero coefficient
        (-6, 10, 15),
        (1, 1, -1009 * 1013),
    ],
)
def test_solvable_equations(coeffs):
    assert_solution(coeffs, solve_ternary(*coeffs))


@pytest.mark.parametrize(
    "coeffs",
    [
        (1, 1, 1),  # definite
        (-2, -3, -5),
        (1, 1, -3),  # 3 is not a sum of two rational squares
        (1, 2, -5),  # no solution modulo 5
    ],
)
def test_unsolvable_equations_return_none(coeffs):
    assert solve_ternary(*coeffs) is None


def test_all_zero_coefficients_return_none():
    assert solve_ternary(0, 0, 0) is None
