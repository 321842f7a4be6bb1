"""Seeded benchmark inputs: catalog algebras moved by random basis changes.

A base algebra is moved by a random invertible rational matrix T, the recipe
of ``tests/conftest.py`` (2n elementary row operations with coefficients
+-1, +-2, +-1/2), through ``nilqp.apply_basis_change``: the new basis is
e_i = sum_j T[i][j] X_j.  Inputs are made before timing starts, so the
program under test only ever receives finished algebras.
"""

from __future__ import annotations

from nilqp import Bigrading, ExactMatrix, LieAlgebra, apply_basis_change
from nilqp.scalars import Q0, Q1, Rational

COEFFS = tuple(Rational(*c) for c in ((1,), (-1,), (2,), (-2,), (1, 2), (-1, 2)))


def random_invertible_t(n: int, rng) -> ExactMatrix:
    """Product of 2n elementary row operations: invertible, small entries."""
    m = [[Q1 if i == j else Q0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = COEFFS[rng.randrange(len(COEFFS))]
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return ExactMatrix(m, cols=n)


def move(base: LieAlgebra, t: ExactMatrix) -> LieAlgebra:
    """The algebra in the basis e_i = sum_j t[i][j] X_j, with its real structure."""
    return apply_basis_change(base, t, name=f"{base.name}~")


def transport_grading(g: Bigrading, t: ExactMatrix) -> Bigrading:
    """The grading in the moved basis: old coordinates map by (t^T)^-1."""
    u = t.transpose().inverse()
    return Bigrading.build([(c.p, c.q, [u.matvec(v) for v in c.generators]) for c in g.components])


def canonical_dump(alg: LieAlgebra) -> str:
    """Byte-stable text of the structure constants and the real structure."""
    real = None if alg.real_structure is None else alg.real_structure.entries
    return repr((alg.dim, alg.field, alg.brackets, real))
