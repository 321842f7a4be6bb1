"""The elimination kernel against the independent Fraction oracles."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nilqp import kernel
from nilqp.exact import RowReducer
from nilqp.scalars import Gaussian, Rational
from oracles import frac_rank, frac_rref

small_q = st.tuples(
    st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=4)
)


def norm_q(t):
    from math import gcd

    n, d = t
    if n == 0:
        return (0, 1)
    g = gcd(n, d)
    return (n // g, d // g)


def q_matrices(entry_strategy, max_dim=6):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda cols: st.lists(
            st.lists(entry_strategy.map(norm_q), min_size=cols, max_size=cols),
            min_size=1,
            max_size=max_dim,
        ).map(lambda rows: (rows, cols))
    )


def as_fractions(rows):
    return [[Fraction(n, d) for (n, d) in row] for row in rows]


def rank_rows(rows, field):
    """Tuple rows in the sparse integer form that `rank_q`/`rank_qi` take."""
    return kernel.int_rows(kernel.decode(rows, field), field)


big_q = st.tuples(
    st.integers(min_value=-(10**20), max_value=10**20),
    st.integers(min_value=1, max_value=10**6),
)


@settings(max_examples=40, deadline=None)
@given(q_matrices(big_q, max_dim=3))
def test_dispatch_handles_arbitrary_precision(data):
    rows, ncols = data
    out, piv = kernel.rref_q([r[:] for r in rows], ncols)
    assert (as_fractions(out), piv) == frac_rref(as_fractions(rows), ncols)
    assert kernel.rank_q(rank_rows(rows, "Q"), ncols) == frac_rank(as_fractions(rows))


@settings(max_examples=80, deadline=None)
@given(q_matrices(small_q))
def test_rref_idempotent_and_rank_consistent(data):
    rows, ncols = data
    out, piv = kernel.rref_q([r[:] for r in rows], ncols)
    again, piv2 = kernel.rref_q([r[:] for r in out], ncols)
    assert again == out and piv2 == piv
    assert kernel.rank_q(rank_rows(rows, "Q"), ncols) == len(piv)


def test_backend_name_reports():
    assert kernel.backend_name() == "pure"


@st.composite
def qi_matrices_with_dependent_rows(draw, max_dim=3):
    """Entries up to 10**20 over denominators up to 10**6; some rows are
    Q(i)-combinations of earlier ones, so that the rank can fall short."""
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    part = big_q.map(lambda t: Fraction(*t))
    entry = st.tuples(part, part)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=max_dim))
    small = small_q.map(lambda t: Fraction(*t))
    coeff = st.tuples(small, small)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        (ar, ai), (br, bi) = draw(coeff), draw(coeff)
        first, last = rows[0], rows[-1]
        rows.append(
            [
                (ar * x - ai * y + br * u - bi * v, ar * y + ai * x + br * v + bi * u)
                for (x, y), (u, v) in zip(first, last)
            ]
        )
    return rows, ncols


def _realified_rank(rows):
    """Rank over Q(i) of rows of (re, im) Fractions, by the Fraction oracle.

    A + iB has half the rank of the real block matrix [[A, -B], [B, A]].
    """
    if not rows:
        return 0
    a = [[x for x, _ in row] for row in rows]
    b = [[y for _, y in row] for row in rows]
    realified = [ra + [-y for y in rb] for ra, rb in zip(a, b)] + [
        rb + ra for ra, rb in zip(a, b)
    ]
    rank = frac_rank(realified)
    assert rank % 2 == 0
    return rank // 2


@settings(max_examples=60, deadline=None)
@given(qi_matrices_with_dependent_rows())
def test_rank_qi_matches_realified_oracle(data):
    rows, ncols = data
    encoded = [
        [(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in row]
        for row in rows
    ]
    assert kernel.rank_qi(rank_rows(encoded, "Qi"), ncols) == _realified_rank(rows)


def _gaussians(row):
    def q(x):
        return Rational(x.numerator, x.denominator)

    return tuple(Gaussian(q(x), q(y)) for x, y in row)


@settings(max_examples=60, deadline=None)
@given(qi_matrices_with_dependent_rows(max_dim=4))
def test_rowreducer_matches_realified_oracle(data):
    rows, ncols = data
    red = RowReducer(ncols)
    for k, row in enumerate(rows):
        rank_before = _realified_rank(rows[:k])
        in_span = _realified_rank(rows[: k + 1]) == rank_before
        assert red.contains(_gaussians(row)) is in_span
        assert red.add(_gaussians(row)) is not in_span
        assert red.dim == _realified_rank(rows[: k + 1])
        assert red.contains(_gaussians(row))


@settings(max_examples=40, deadline=None)
@given(qi_matrices_with_dependent_rows(max_dim=4))
def test_rowreducer_copy_leaves_original_unchanged(data):
    rows, ncols = data
    half = len(rows) // 2
    red = RowReducer(ncols)
    for row in rows[:half]:
        red.add(_gaussians(row))
    dim = red.dim
    grown = red.copy()
    for row in rows[half:]:
        grown.add(_gaussians(row))
    assert grown.dim == _realified_rank(rows)
    assert red.dim == dim == _realified_rank(rows[:half])
    for row in rows[half:]:
        in_span = _realified_rank(rows[:half] + [row]) == dim
        assert red.contains(_gaussians(row)) is in_span


@settings(max_examples=60, deadline=None)
@given(qi_matrices_with_dependent_rows(max_dim=4))
def test_zi_rows_combine_and_decode_match_fractions(data):
    rows, ncols = data
    vecs = [_gaussians(row) for row in rows]
    encoded, den = kernel.zi_rows(vecs)
    assert [kernel.zi_decode(r, den, ncols) for r in encoded] == vecs
    x, y = rows[0], rows[-1]
    # x + i*y - 2*conj(x), on Z[i] rows and on Fractions
    got = kernel.zi_combine(
        ((1, 0), encoded[0]),
        ((0, 1), encoded[-1]),
        ((-2, 0), kernel.zi_conj(encoded[0])),
    )
    want = [
        (a - d - 2 * a, b + c + 2 * b) for (a, b), (c, d) in zip(x, y)
    ]
    assert kernel.zi_decode(got, den, ncols) == _gaussians(want)
