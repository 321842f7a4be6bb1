"""The elimination kernel against the independent Fraction oracles."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nilqp import kernel
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
    assert kernel.rank_q([r[:] for r in rows], ncols) == frac_rank(as_fractions(rows))


@settings(max_examples=80, deadline=None)
@given(q_matrices(small_q))
def test_rref_idempotent_and_rank_consistent(data):
    rows, ncols = data
    out, piv = kernel.rref_q([r[:] for r in rows], ncols)
    again, piv2 = kernel.rref_q([r[:] for r in out], ncols)
    assert again == out and piv2 == piv
    assert kernel.rank_q([r[:] for r in rows], ncols) == len(piv)


def test_backend_name_reports():
    assert kernel.backend_name() == "pure"
