import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilqp import (
    ExactMatrix,
    Subspace,
    apply_basis_change,
    center,
    commutator_ideal,
    complexify,
    conjugate_vector,
    kernel_basis,
    lower_central_series,
    rref_rank,
    subspace_sum_intersect,
)
from nilqp.catalog import get
from nilqp.cohomology import _commutator_adapted_table
from nilqp.errors import AmbientMismatch, NotInvolution
from nilqp.scalars import Gaussian, Rational

from conftest import count_scalar_arithmetic, random_invertible_t
from oracles import frac_rank


def M(rows, cols=None):
    return ExactMatrix(rows, cols=cols)


def test_rref_identity():
    red, rank = rref_rank(ExactMatrix.identity(2))
    assert rank == 2
    assert red == ExactMatrix.identity(2)


def test_rref_proportional_rows():
    red, rank = rref_rank(M([[1, 2], [2, 4]]))
    assert rank == 1
    assert red == M([[1, 2], [0, 0]])


def test_rref_input_unchanged():
    m = M([[1, 2], [2, 4]])
    rref_rank(m)
    assert m == M([[1, 2], [2, 4]])


def test_kernel_of_zero_and_identity():
    assert kernel_basis(ExactMatrix.zeros(3, 3)).dim == 3
    assert kernel_basis(ExactMatrix.identity(4)).dim == 0


def test_kernel_dimension_formula():
    m = M([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    red, rank = rref_rank(m)
    k = kernel_basis(m)
    assert k.dim + rank == m.cols
    for v in k.vectors():
        assert all(not x for x in m.matvec(v))


def test_sum_intersect_equal_subspaces():
    a = Subspace.from_spanning([[1, 0, 0], [0, 1, 0]], ambient_dim=3)
    s, i = subspace_sum_intersect(a, a)
    assert s == a and i == a


def test_sum_intersect_complementary_planes():
    a = Subspace.from_spanning([[1, 0, 0, 0], [0, 1, 0, 0]], ambient_dim=4)
    b = Subspace.from_spanning([[0, 0, 1, 0], [0, 0, 0, 1]], ambient_dim=4)
    s, i = subspace_sum_intersect(a, b)
    assert s == Subspace.full(4)
    assert i.dim == 0


def test_sum_intersect_skew_lines():
    a = Subspace.from_spanning([[1, 1]], ambient_dim=2)
    b = Subspace.from_spanning([[0, 1]], ambient_dim=2)
    s, i = subspace_sum_intersect(a, b)
    assert s == Subspace.full(2)
    assert i.dim == 0


def _random_vectors(rng, n, gaussian):
    """Up to n vectors of length n with small integer or Gaussian integer entries."""
    count = rng.randrange(0, n + 1)
    if not gaussian:
        return [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(count)]
    return [
        [Gaussian(rng.randrange(-3, 4), rng.randrange(-2, 3)) for _ in range(n)]
        for _ in range(count)
    ]


def test_sum_intersect_dimension_formula(rng):
    # 25 pairs of spaces over Q, then 27 where one or both are over Q(i).
    for over_qi in [(False, False)] * 25 + [(True, True), (True, False), (False, True)] * 9:
        n = rng.randrange(1, 6)
        a = Subspace.from_spanning(_random_vectors(rng, n, over_qi[0]), ambient_dim=n)
        b = Subspace.from_spanning(_random_vectors(rng, n, over_qi[1]), ambient_dim=n)
        s, i = subspace_sum_intersect(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        assert i.is_subspace_of(a) and i.is_subspace_of(b)
        assert a.is_subspace_of(s) and b.is_subspace_of(s)
        assert a.intersect(b) == i and a.sum(b) == s
        # The meet is over Q(i) exactly when an input is and it is not zero.
        qi = "Qi" in (a.basis.field, b.basis.field)
        assert i.basis.field == ("Qi" if qi and i.dim else "Q")
        assert all(type(x) is (Gaussian if qi else Rational) for v in i.vectors() for x in v)


def test_sum_intersect_ambient_mismatch():
    a = Subspace.full(2)
    b = Subspace.full(3)
    with pytest.raises(AmbientMismatch):
        subspace_sum_intersect(a, b)


def test_subspace_contains():
    s = Subspace.from_spanning([[1, 0, 0], [0, 1, 1]], ambient_dim=3)
    assert s.contains([2, Rational(1, 3), Rational(1, 3)])
    assert s.contains([0, 0, 0])
    assert not s.contains([0, 0, 1])
    assert not s.contains([1, Gaussian(0, 1), 0])
    with pytest.raises(AmbientMismatch):
        s.contains([1, 0])


def test_subspace_canonical_equality():
    a = Subspace.from_spanning([[1, 1, 0], [0, 2, 2]], ambient_dim=3)
    b = Subspace.from_spanning([[2, 2, 0], [1, 3, 2], [1, -1, -2]], ambient_dim=3)
    assert a == b
    assert hash(a) == hash(b)
    assert a.basis == b.basis


def test_equality_across_fields_and_zero_spaces_over_q():
    # A space over Q(i) with the same vectors as one over Q is the same space.
    vecs = [[1, 0, Rational(1, 2), 3], [0, 2, 1, Rational(-1, 3)]]
    q = Subspace.from_spanning(vecs, ambient_dim=4)
    qi = Subspace.from_spanning([[Gaussian(x) for x in v] for v in vecs], ambient_dim=4)
    assert (q.basis.field, qi.basis.field) == ("Q", "Qi")
    assert q == qi and qi == q
    assert hash(q) == hash(qi)
    assert len({q, qi}) == 1
    assert q != Subspace.from_spanning([[Gaussian(1, 1), 0, 0, 0]], ambient_dim=4)
    # A zero meet or sum is over Q, whatever the fields of its inputs.
    a = Subspace.from_spanning([[1, Gaussian(0, 1), 0]], ambient_dim=3)
    b = Subspace.from_spanning([[1, 0, Gaussian(2, 1)]], ambient_dim=3)
    zero = Subspace.zero(3)
    for space in (a.intersect(b), zero.sum(zero), a.intersect(zero), zero.intersect(b)):
        assert space.dim == 0 and space.basis.field == "Q"
        assert space == zero and hash(space) == hash(zero)
    assert a.sum(b).basis.field == "Qi"


def test_conjugate_vector_identity_structure():
    s = ExactMatrix.identity(2)
    i = Gaussian(0, 1)
    out = conjugate_vector((1 + i, Rational(2)), s)
    assert out == (Gaussian(1, -1), Gaussian(2, 0))


def test_conjugate_vector_swap_structure():
    s = M([[0, 1], [1, 0]])
    i = Gaussian(0, 1)
    out = conjugate_vector((1 + i, Rational(0)), s)
    assert out == (Gaussian(0, 0), Gaussian(1, -1))


def test_conjugate_vector_is_involution(rng):
    s = M([[0, 1], [1, 0]])
    for _ in range(10):
        v = tuple(
            Gaussian(rng.randrange(-3, 4), rng.randrange(-3, 4)) for _ in range(2)
        )
        assert conjugate_vector(conjugate_vector(v, s), s) == v


def test_conjugate_vector_antilinear():
    s = ExactMatrix.identity(2)
    i = Gaussian(0, 1)
    lam = Gaussian(2, 3)
    v = (1 + i, Rational(2))
    scaled = tuple(lam * x for x in v)
    expect = tuple(
        Gaussian(lam.re, -lam.im) * x for x in conjugate_vector(v, s)
    )
    assert conjugate_vector(scaled, s) == expect


def test_conjugate_vector_rejects_non_involution():
    s = M([[2, 0], [0, 1]])
    with pytest.raises(NotInvolution):
        conjugate_vector((Rational(1), Rational(1)), s)


entries = st.integers(min_value=-8, max_value=8)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.lists(
            st.lists(entries, min_size=c, max_size=c), min_size=1, max_size=5
        )
    )
)
def test_rank_matches_oracle_and_transpose(rows):
    m = ExactMatrix(rows, cols=len(rows[0]))
    assert m.rank() == frac_rank(rows)
    assert m.rank() == m.transpose().rank()


def test_matmul_and_inverse():
    a = M([[1, 2], [3, 5]])
    inv = a.inverse()
    assert a.matmul(inv) == ExactMatrix.identity(2)
    with pytest.raises(ValueError):
        M([[1, 2], [2, 4]]).inverse()


def test_mixed_field_promotion():
    m = M([[1, Gaussian(0, 1)]])
    assert m.field == "Qi"
    assert all(isinstance(x, Gaussian) for x in m.entries[0])


_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)


def test_pipeline_facts_build_no_matrix_and_make_no_scalar_arithmetic(rng, monkeypatch):
    # Subspaces keep their bases as the kernel's exact vectors, so the
    # series, center, commutator ideal, the adapted table of the Betti
    # numbers and the meets, sums and containments of those spaces neither
    # build an `ExactMatrix` nor combine scalars.
    moved = apply_basis_change(get("N1_82").algebra, random_invertible_t(8, rng))
    algebras = [moved, complexify(moved)]
    calls = count_scalar_arithmetic(monkeypatch)
    init = ExactMatrix.__init__

    def counted_init(self, *args, **kwargs):
        calls.append("ExactMatrix.__init__")
        init(self, *args, **kwargs)

    monkeypatch.setattr(ExactMatrix, "__init__", counted_init)
    dims = []
    for alg in algebras:
        terms = lower_central_series(alg).terms
        z, c1 = center(alg), commutator_ideal(alg)
        _commutator_adapted_table(alg)
        meet, total = z.intersect(c1), z.sum(c1)
        nested = [c1.is_subspace_of(z), terms[2].is_subspace_of(terms[1]), meet.is_subspace_of(c1)]
        dims.append(([t.dim for t in terms], z.dim, c1.dim, meet.dim, total.dim, nested))
    monkeypatch.undo()
    assert calls == []
    assert dims[0] == dims[1]
    assert dims[0][1:] == (2, 2, 2, 2, [True, True, True])


def test_null_spaces_make_no_scalar_arithmetic(rng, monkeypatch):
    # Null spaces are solved on kernel integer rows: scalars are only read
    # (numerators, denominators) and built for the result, never combined.
    moved = apply_basis_change(get("N1_82").algebra, random_invertible_t(8, rng))
    moved_c = complexify(moved)
    m = M([[1, 2, 3, 4], [2, 4, 6, 8], [Rational(1, 2), 0, 1, Rational(-1, 3)]])
    m_qi = M([[1, Gaussian(1, 2), 3, 0], [Gaussian(0, 1), Gaussian(-2, 1), 3, Rational(1, 2)]])
    a = Subspace.from_spanning([[1, 0, 1, 2], [0, 1, 1, Rational(1, 2)]], ambient_dim=4)
    shared = [1, 1, 2, Rational(5, 2)]
    b = Subspace.from_spanning([shared, [0, 0, 1, 1]], ambient_dim=4)
    b_qi = Subspace.from_spanning([shared, [0, Gaussian(0, 1), 1, 1]], ambient_dim=4)
    calls = []
    for cls in (Rational, Gaussian):
        for name in _ARITHMETIC:
            method = getattr(cls, name)

            def counted(*args, _method=method, _name=f"{cls.__name__}.{name}"):
                calls.append(_name)
                return _method(*args)

            monkeypatch.setattr(cls, name, counted)
    z, z_c = center(moved), center(moved_c)
    k, k_qi = kernel_basis(m), kernel_basis(m_qi)
    meet, meet_qi = a.intersect(b), a.intersect(b_qi)
    monkeypatch.undo()
    assert calls == []
    assert (z.dim, z_c.dim, k.dim, k_qi.dim, meet.dim, meet_qi.dim) == (2, 2, 2, 2, 1, 1)
