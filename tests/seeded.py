"""Seeded inputs shared by the tests and the golden digests.

Plain functions of a `random.Random` or of fixed seeds, importing neither
pytest nor hypothesis, so that `golden.py` runs on any interpreter with
nilqp on its path.  `conftest.py` re-exports every name for the tests.
"""

import random
from fractions import Fraction
from math import lcm

from nilqp import Bigrading, ExactMatrix, LieAlgebra, apply_basis_change, direct_sum, kernel
from nilqp.catalog import get
from nilqp.errors import JacobiViolation
from nilqp.scalars import Gaussian, Q0, Q1, Rational

_COEFFS = (
    Rational(1),
    Rational(-1),
    Rational(2),
    Rational(-2),
    Rational(1, 2),
    Rational(-1, 2),
)


def random_invertible_t(n: int, rng: random.Random) -> ExactMatrix:
    """Product of 2n elementary row operations: invertible, small entries."""
    m = [[Q1 if i == j else Q0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = _COEFFS[rng.randrange(len(_COEFFS))]
        for t in range(n):
            m[i][t] = m[i][t] + c * m[j][t]
    return ExactMatrix(m, cols=n)


def random_nilpotent(n: int, rng: random.Random) -> LieAlgebra:
    """A nilpotent algebra over Q with random strictly upper-triangular constants.

    The pairs i < j are visited in random order; each draws [X_i, X_j] in
    span{X_k : k > j}, one or two coefficients from ``_COEFFS``, kept only
    if Jacobi still holds.  Each ad X_i raises indices, so the algebra is
    nilpotent.
    """
    brackets: dict = {}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n - 1)]
    rng.shuffle(pairs)
    for i, j in pairs:
        ks = rng.sample(range(j + 1, n), min(n - 1 - j, rng.randint(1, 2)))
        trial = {**brackets, (i, j): {k: _COEFFS[rng.randrange(len(_COEFFS))] for k in ks}}
        try:
            LieAlgebra.from_brackets("trial", n, trial)
        except JacobiViolation:
            continue
        brackets = trial
    return LieAlgebra.from_brackets(f"random_{n}", n, brackets)


def moved_parity_sum() -> LieAlgebra:
    """L5_parity+L5_parity in a seeded basis, which only the generic DFS settles."""
    alg = direct_sum(get("L5_parity").algebra, get("L5_parity").algebra)
    return apply_basis_change(alg, random_invertible_t(alg.dim, random.Random(1)))


def ternary_from_solution(a, b, x, y, z) -> tuple[int, int, int]:
    """Integers (a', b', c') with a' x^2 + b' y^2 + c' z^2 = 0, proportional to (a, b, c).

    ``a`` and ``b`` are ints or Fractions and c is chosen so that
    a x^2 + b y^2 + c z^2 = 0; the equation is cleared of denominators by
    the least common multiple of its coefficients' denominators.
    """
    coeffs = (Fraction(a), Fraction(b), -(a * x * x + b * y * y) / Fraction(z * z))
    scale = lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * scale) for c in coeffs)


def seeded_ternary_equations():
    """300 seeded integer ternary equations, each built from a known solution.

    Larger coefficients, and rational a and b before clearing: the
    squarefree split and the descent both have work to do.
    """
    rng = random.Random(20240611)
    for _ in range(300):
        a = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 2000), rng.randrange(1, 30))
        b = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 2000), rng.randrange(1, 30))
        x, y, z = (rng.randrange(1, 200) * rng.choice([-1, 1]) for _ in range(3))
        yield ternary_from_solution(a, b, x, y, z)


# Real and imaginary parts with different denominators, so that clearing
# the constants of a moved algebra needs one common denominator of both.
_GAUSSIAN_COEFFS = (
    Gaussian(Rational(1, 2), Rational(1, 3)),
    Gaussian(Rational(-1, 3), Rational(1, 2)),
    Gaussian(Rational(2), Rational(-1, 5)),
    Gaussian(Rational(-3, 4), Rational(2, 3)),
)


def random_gaussian_t(n: int, rng: random.Random) -> ExactMatrix:
    """Product of 2n elementary row operations with Gaussian coefficients."""
    m = [[Q1 if i == j else Q0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = _GAUSSIAN_COEFFS[rng.randrange(len(_GAUSSIAN_COEFFS))]
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return ExactMatrix(m, cols=n)


def carried_grading(grading: Bigrading, t: ExactMatrix) -> Bigrading:
    """The grading in the basis moved by T: old coordinates map by (T^t)^-1.

    (T^t)^-1 comes from one `kernel.zi_solve` and maps each component's
    stored rows; a component reads over Q(i) when it or T does.
    """
    n = t.rows
    a, den = kernel.zi_rows(t.transpose().entries)  # T^t = a / den
    inv, inv_den = kernel.zi_solve(a, [{j: (1, 0)} for j in range(n)])  # a^-1 = inv / inv_den
    return Bigrading._from_rows(
        (c.p, c.q, n, "Qi" if "Qi" in (c.field, t.field) else "Q",
         [(kernel.zi_combine(((den, 0), kernel.zi_matvec(inv, row))), d * inv_den) for row, d in c.rows])
        for c in grading.components
    )
