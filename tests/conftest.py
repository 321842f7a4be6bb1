import os
import random
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import settings

from nilqp import Bigrading, ExactMatrix, LieAlgebra, apply_basis_change, direct_sum
from nilqp.catalog import get
from nilqp.errors import JacobiViolation
from nilqp.scalars import Gaussian, Q0, Q1, Rational

# One fixed sequence of examples per test, and no example database: every
# run tries the same inputs, and no failing example is saved for the next.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

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
    """The grading in the basis moved by T: old coordinates map by (T^t)^-1."""
    u = t.transpose().inverse()
    return Bigrading.build(
        [(c.p, c.q, [u.matvec(v) for v in c.generators]) for c in grading.components]
    )


_SCALAR_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)


class ScalarCalls(list):
    """The names of logged scalar arithmetic calls, e.g. "Rational.__add__".

    ``callers`` holds, call by call, the first frame outside scalars.py, as
    "file:line function": the code that asked for the arithmetic.
    """

    def __init__(self):
        super().__init__()
        self.callers = []


def count_scalar_arithmetic(monkeypatch) -> ScalarCalls:
    """Wrap every arithmetic method of `Rational` and `Gaussian` to log its calls.

    Returns the list each call appends its name to, e.g. "Rational.__add__",
    and its caller to ``callers``.  Constructing a scalar is not arithmetic,
    and is not logged.
    """
    calls = ScalarCalls()
    for cls in (Rational, Gaussian):
        for name in _SCALAR_ARITHMETIC:
            if name in vars(cls):

                def counted(*args, _method=vars(cls)[name], _name=f"{cls.__name__}.{name}"):
                    calls.append(_name)
                    calls.callers.append(_caller(sys._getframe(1)))
                    return _method(*args)

                monkeypatch.setattr(cls, name, counted)
    return calls


def _caller(frame) -> str:
    """The first frame from ``frame`` out that is neither in scalars.py nor a wrapper."""
    while frame.f_code.co_filename.endswith("scalars.py") or frame.f_code.co_name == "counted":
        frame = frame.f_back
    return f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno} {frame.f_code.co_name}"


@pytest.fixture
def rng():
    return random.Random(20240611)
