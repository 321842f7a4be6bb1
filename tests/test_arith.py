"""Oracle tests for the integer number theory in nilqp._arith.

Every (x, y, z) the ternary quadratic solver returns is checked against
a x^2 + b y^2 + c z^2 = 0 on integers; equations built from a known nonzero
solution must be solved.  Equations with rational coefficients are passed
cleared of denominators.  The rational roots of polynomials of degree <= 3
are checked in `fractions.Fraction` against the rational root theorem.
"""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilqp._arith import rational_roots, solve_ternary

from conftest import seeded_ternary_equations, ternary_from_solution


def assert_solution(coeffs, sol):
    assert sol is not None, coeffs
    assert all(isinstance(x, int) for x in sol), sol
    assert any(sol), (coeffs, sol)
    assert sum(c * x * x for c, x in zip(coeffs, sol)) == 0, (coeffs, sol)


nonzero = st.integers(-60, 60).filter(bool)


@settings(max_examples=150, deadline=None)
@given(nonzero, nonzero, nonzero, nonzero, nonzero)
def test_equation_with_known_solution_is_solved(a, b, x, y, z):
    coeffs = ternary_from_solution(a, b, x, y, z)
    assert_solution(coeffs, solve_ternary(*coeffs))


def test_seeded_equations_with_known_solutions():
    for coeffs in seeded_ternary_equations():
        assert_solution(coeffs, solve_ternary(*coeffs))


@pytest.mark.parametrize(
    "coeffs",
    [
        (1, 1, -2),  # (1, 1, 1)
        (1, -1, 5),  # (1, 1, 0)
        (3, 5, -8),
        (2, 7, -9),  # (1, 1, 1)
        (3, -2, -1),  # (1/2, -1/3, -1/6) cleared: (1, 1, 1)
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


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _root_theorem_roots(coeffs) -> set[Fraction]:
    """The rational roots of sum coeffs[k] t^k: 0, and the +-p/q that vanish.

    By the rational root theorem, p divides the lowest nonzero coefficient
    and q the leading one.
    """
    low = next(k for k, c in enumerate(coeffs) if c)
    rest = coeffs[low:]
    roots = {Fraction(0)} if low else set()
    for p in _divisors(abs(rest[0])):
        for q in _divisors(abs(rest[-1])):
            for t in (Fraction(p, q), Fraction(-p, q)):
                if not sum(c * t**k for k, c in enumerate(rest)):
                    roots.add(t)
    return roots


def _seeded_polynomials(rng, count):
    """Integer polynomials of degree 0-3, constant term first, the last coefficient nonzero.

    Half are products of linear factors q t - p with small p and q, a
    factor sometimes repeated (a double root) and p sometimes 0 (a zero
    constant term); half have random coefficients.
    """
    for _ in range(count):
        deg = rng.randint(0, 3)
        if rng.random() < 0.5:
            poly = [rng.choice([-3, -2, -1, 1, 2, 3])]
            factor = None
            for _ in range(deg):
                if factor is None or rng.random() < 0.7:
                    factor = (-rng.randint(-6, 6), rng.choice([-5, -3, -2, -1, 1, 2, 4]))
                poly = [
                    (poly[k] if k < len(poly) else 0) * factor[0]
                    + (poly[k - 1] if k else 0) * factor[1]
                    for k in range(len(poly) + 1)
                ]
        else:
            poly = [rng.randint(-30, 30) for _ in range(deg)] + [rng.choice([-7, -2, -1, 1, 3, 5])]
            if deg and rng.random() < 0.3:
                poly[0] = 0
        yield poly


def test_rational_roots_match_the_rational_root_theorem():
    rng = random.Random(20261019)
    orders = set()
    doubles = 0
    for coeffs in _seeded_polynomials(rng, 600):
        got = rational_roots(coeffs)
        assert all(d > 0 and gcd(n, d) == 1 for n, d in got), (coeffs, got)
        roots = [Fraction(n, d) for n, d in got]
        assert len(set(roots)) == len(roots), (coeffs, got)
        assert set(roots) == _root_theorem_roots(coeffs), (coeffs, got)
        # The documented order: 0 first, then the roots of what is left
        # after factoring out powers of t.
        low = next(k for k, c in enumerate(coeffs) if c)
        rest = coeffs[low:]
        if low:
            assert roots[0] == 0, (coeffs, got)
            roots = roots[1:]
        if len(rest) == 3 and rest[1] ** 2 - 4 * rest[2] * rest[0] >= 0:
            c0, c1, c2 = rest
            r = isqrt(c1 * c1 - 4 * c2 * c0)
            if r * r == c1 * c1 - 4 * c2 * c0:
                want = [Fraction(-c1 + r, 2 * c2), Fraction(-c1 - r, 2 * c2)]
                assert roots == list(dict.fromkeys(want)), (coeffs, got)
        if len(rest) == 4:
            assert roots == sorted(roots, key=lambda t: rest[3] * t), (coeffs, got)
        orders.add((len(coeffs) - 1, low > 0, len(roots)))
        slope = [k * c for k, c in enumerate(coeffs)][1:]
        doubles += any(not sum(c * t**k for k, c in enumerate(slope)) for t in set(roots))
    # Every degree, with and without a zero constant term, and polynomials
    # with three distinct roots left after factoring out t.
    assert {(deg, zero) for deg, zero, _ in orders} >= {
        (deg, zero) for deg in range(1, 4) for zero in (False, True)
    } | {(0, False)}
    assert (3, False, 3) in orders
    assert doubles  # double roots, not at 0
