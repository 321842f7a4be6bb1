from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilqp import (
    ExactMatrix,
    Subspace,
    abelian,
    abelian_split_transformation,
    apply_basis_change,
    center,
    commutator_ideal,
    complexify,
    conjugate_vector,
    direct_sum,
    kernel_basis,
    lower_central_series,
    rref_rank,
    subspace_sum_intersect,
)
from nilqp import kernel
from nilqp.catalog import get
from nilqp.cohomology import _commutator_adapted_table, ce_differential
from nilqp.errors import AmbientMismatch, NotInvolution
from nilqp.scalars import Gaussian, Rational

from conftest import count_scalar_arithmetic, random_gaussian_t, random_invertible_t
from oracles import _c_matmul, frac_inverse_qi, frac_rank, frac_rref, frac_rref_qi


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


def _stacked_annihilators_null_space(x, y):
    """The meet of two nonzero spaces as the null space of both annihilators stacked."""
    n, field = x.ambient_dim, "Qi" if "Qi" in (x.field, y.field) else "Q"
    rows = [
        row for s in (x, y) for row, _ in kernel.null_space([r for r, _ in s.rows], n, field)
    ]
    return kernel.null_space(rows, n, field)


def test_sum_intersect_dimension_formula(rng):
    # 25 pairs of spaces over Q, then 27 where one or both are over Q(i).
    # The meet's exact vectors are those of the null space of both
    # annihilators stacked, also when one space lies in the other.
    for over_qi in [(False, False)] * 25 + [(True, True), (True, False), (False, True)] * 9:
        n = rng.randrange(1, 6)
        a = Subspace.from_spanning(_random_vectors(rng, n, over_qi[0]), ambient_dim=n)
        b = Subspace.from_spanning(_random_vectors(rng, n, over_qi[1]), ambient_dim=n)
        s, i = subspace_sum_intersect(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        assert i.is_subspace_of(a) and i.is_subspace_of(b)
        assert a.is_subspace_of(s) and b.is_subspace_of(s)
        assert a.intersect(b) == i and a.sum(b) == s
        for x, y in ((a, b), (a, s), (s, b)):
            if x.dim and y.dim:
                assert x.intersect(y).rows == _stacked_annihilators_null_space(x, y)
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
    # A Gaussian entry in any row, not only the first, puts the matrix over Q(i).
    later = M([[1, 0], [0, Gaussian(2)]])
    assert later.field == "Qi"
    assert {type(x) for row in later.entries for x in row} == {Gaussian}


def test_matvec_result_has_one_scalar_type():
    # An entry whose products are all zero is Gaussian too when the matrix
    # is over Q(i) or the vector holds a Gaussian.
    i = Gaussian(0, 1)
    assert M([[i, 0], [0, 0]]).matvec([1, 0]) == (i, 0)
    assert [type(x) for x in M([[i, 0], [0, 0]]).matvec([1, 0])] == [Gaussian, Gaussian]
    assert [type(x) for x in M([[1, 0], [0, 0]]).matvec([i, 0])] == [Gaussian, Gaussian]
    assert [type(x) for x in M([[1, 0], [0, 0]]).matvec([1, 0])] == [Rational, Rational]


def test_a_matrix_keeps_its_rows_once_in_lowest_terms():
    # One exact vector per row, ints only, each in lowest terms whatever
    # the denominators of the other rows; the entries are decoded on each read.
    m = M([[1, Rational(1, 2)], [2, 4], [0, 0], [Gaussian(0, 2), Rational(2, 3)]])
    assert m.exact_rows == (
        ({0: (2, 0), 1: (1, 0)}, 2),
        ({0: (2, 0), 1: (4, 0)}, 1),
        ({}, 1),
        ({0: (0, 6), 1: (2, 0)}, 3),
    )
    assert m.entries == m.entries and m.entries is not m.entries
    assert set(ExactMatrix.__slots__) == {"rows", "cols", "field", "exact_rows"}


# -- the matrix API against the Fraction oracles ---------------------------------

_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _matrices(draw, rows, cols):
    """An ExactMatrix of the shape and its entries as (re, im) Fraction pairs.

    Over Q(i) each entry is a `Gaussian` or a `Rational` at random, so a
    matrix is over Q(i) when any one entry was entered as a `Gaussian`.
    """
    qi = draw(st.booleans())
    pairs, scalars, gaussian = [], [], False
    for _ in range(rows):
        prow, srow = [], []
        for _ in range(cols):
            re = draw(_FRACTIONS)
            im = draw(_FRACTIONS) if qi else Fraction(0)
            as_gaussian = qi and (im != 0 or draw(st.booleans()))
            gaussian |= as_gaussian
            x = Rational(re.numerator, re.denominator)
            if as_gaussian:
                x = Gaussian(x, Rational(im.numerator, im.denominator))
            prow.append((re, im))
            srow.append(x)
        pairs.append(prow)
        scalars.append(srow)
    m = ExactMatrix(scalars, cols=cols)
    assert m.field == ("Qi" if gaussian else "Q")
    return m, pairs


def _pairs(m):
    """The entries of ``m`` as (re, im) Fraction pairs, all of the type its field asks for."""
    kind = Gaussian if m.field == "Qi" else Rational
    assert all(type(x) is kind for row in m.entries for x in row)
    return [[_pair(x) for x in row] for row in m.entries]


def _pair(x):
    re, im = (x.re, x.im) if type(x) is Gaussian else (x, Rational(0))
    return Fraction(re.num, re.den), Fraction(im.num, im.den)


def _product(a, b, inner, cols):
    """``a`` times ``b`` by `_c_matmul`, zeros when the inner dimension is 0."""
    if not inner:
        return [[(Fraction(0), Fraction(0))] * cols for _ in a]
    return _c_matmul(a, b)


def _lowest(m):
    return all(den > 0 and kernel.zi_lowest(row, den) == (row, den) for row, den in m.exact_rows)


_DIMS = st.integers(min_value=0, max_value=3)


@settings(max_examples=120, deadline=None)
@given(_DIMS, _DIMS, _DIMS, _DIMS, st.data())
def test_matrix_api_matches_the_fraction_oracles(r, c, s, r2, data):
    (a, pa), (b, pb) = data.draw(_matrices(r, c)), data.draw(_matrices(c, s))
    (a2, pa2), (a3, pa3) = data.draw(_matrices(r2, c)), data.draw(_matrices(r, s))
    (v, pv) = data.draw(_matrices(1, c))
    qi = "Qi" in (a.field, b.field)

    ab = a.matmul(b)
    assert (ab.rows, ab.cols, ab.field) == (r, s, "Qi" if qi else "Q")
    assert _pairs(ab) == _product(pa, pb, c, s)
    out = a.matvec(v.entries[0])
    assert [_pair(x) for x in out] == [row[0] for row in _product(pa, [[x] for x in pv[0]], c, 1)]
    kind = Gaussian if "Qi" in (a.field, v.field) else Rational
    assert all(type(x) is kind for x in out)

    t = a.transpose()
    assert (t.rows, t.cols, t.field) == (c, r, a.field)
    assert _pairs(t) == [[row[j] for row in pa] for j in range(c)]
    assert t.transpose() == a
    assert [t.row(j) for j in range(c)] == [a.column(j) for j in range(c)]
    assert all(a[i, j] == a.entries[i][j] for i in range(r) for j in range(c))
    stacked = a.stack(a2)
    assert (stacked.rows, stacked.field) == (r + r2, "Qi" if "Qi" in (a.field, a2.field) else "Q")
    assert _pairs(stacked) == pa + pa2
    aug = a.augment(a3)
    assert (aug.cols, aug.field) == (c + s, "Qi" if "Qi" in (a.field, a3.field) else "Q")
    assert _pairs(aug) == [x + y for x, y in zip(pa, pa3)]
    for m in (a, ab, t, stacked, aug):
        assert _lowest(m)

    red, pivots = a.rref()
    if a.field == "Q":
        want, want_pivots = frac_rref([[x for x, _ in row] for row in pa], c)
        want = [[(x, Fraction(0)) for x in row] for row in want]
    else:
        want, want_pivots = frac_rref_qi(pa, c)
    assert (_pairs(red), pivots, red.field) == (want, want_pivots, a.field)
    assert a.rank() == len(want_pivots)
    assert kernel_basis(a).dim == c - len(pivots)

    # Equal matrices are equal and hash alike, whatever their fields; a
    # matrix re-entered from its entries, over the other field, is equal.
    again = M(a.entries, cols=c)
    other = M([[Gaussian(x) if a.field == "Q" else x for x in row] for row in a.entries], cols=c)
    for m in (again, other, a.stack(ExactMatrix.empty(c, "Qi"))):
        assert m == a and hash(m) == hash(a)
    assert M(a.entries + a2.entries, cols=c) == stacked
    if r and c:
        bumped = [list(row) for row in a.entries]
        bumped[-1][-1] = bumped[-1][-1] + 1
        assert M(bumped, cols=c) != a


@settings(max_examples=80, deadline=None)
@given(_DIMS.flatmap(lambda n: _matrices(n, n)))
def test_inverse_matches_the_fraction_oracle(drawn):
    a, pa = drawn
    want = frac_inverse_qi(pa)
    if want is None:
        with pytest.raises(ValueError, match="matrix is singular"):
            a.inverse()
        return
    inv = a.inverse()
    assert (_pairs(inv), inv.field) == (want, a.field)
    assert a.matmul(inv) == ExactMatrix.identity(a.rows) == inv.matmul(a)


def test_shape_errors_keep_their_types_and_texts():
    a = M([[1, 2], [3, 4]])
    with pytest.raises(AmbientMismatch, match="cannot multiply 2x2 by 1x2"):
        a.matmul(M([[1, 2]]))
    with pytest.raises(AmbientMismatch, match="vector length mismatch in matvec"):
        a.matvec([1])
    with pytest.raises(AmbientMismatch, match="cannot stack 2 with 3 columns"):
        a.stack(M([[1, 2, 3]]))
    with pytest.raises(AmbientMismatch, match="row count mismatch in augment"):
        a.augment(M([[1]]))
    with pytest.raises(ValueError, match="only square matrices can be inverted"):
        M([[1, 2]]).inverse()
    with pytest.raises(ValueError, match="ragged rows"):
        M([[1, 2], [3]])
    with pytest.raises(ValueError, match="explicit column count"):
        M([])
    with pytest.raises(AttributeError, match="immutable"):
        a.rows = 3


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
    init, from_rows = ExactMatrix.__init__, ExactMatrix._from_rows

    def counted_init(self, *args, **kwargs):
        calls.append("ExactMatrix.__init__")
        init(self, *args, **kwargs)

    def counted_from_rows(*args, **kwargs):
        calls.append("ExactMatrix._from_rows")
        return from_rows(*args, **kwargs)

    monkeypatch.setattr(ExactMatrix, "__init__", counted_init)
    monkeypatch.setattr(ExactMatrix, "_from_rows", counted_from_rows)
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


def test_matrix_methods_make_no_scalar_arithmetic(rng, monkeypatch):
    # A matrix keeps its rows as the kernel's integers: every method, and
    # the functions that read or build matrices, run on them, and scalars
    # are only built (and read) for the entries a caller asks for.
    i = Gaussian(0, 1)
    a = M([[1, Rational(1, 2), 0], [2, 0, Rational(-1, 3)], [0, 1, 1]])
    b = M([[1, i, 0], [Gaussian(1, 1), 0, 2], [0, 0, Rational(1, 2)]])
    alg = get("N1_84").algebra
    qi = complexify(get("n5").algebra)
    t, t_qi = random_invertible_t(alg.dim, rng), random_gaussian_t(qi.dim, rng)
    split = direct_sum(get("n3").algebra, abelian(2))
    swap = M([[0, 1], [1, 0]])
    calls = count_scalar_arithmetic(monkeypatch)
    for m in (a, b):
        for other in (a, b):
            m.matmul(other), m.stack(other), m.augment(other), m == other, m != other
        m.transpose(), m.inverse(), m.rref(), m.rank(), m.is_zero(), hash(m), repr(m)
        m.matvec([1, i, Rational(2, 3)]), m.matvec((1, 2, 3)), m.entries, m.row(1), m.column(2)
        m[1, 2], rref_rank(m), kernel_basis(m)
        M(m.entries, cols=3)
    ExactMatrix.identity(3), ExactMatrix.zeros(2, 3), ExactMatrix.empty(3, "Qi")
    with pytest.raises(ValueError):
        M([[1, 2], [2, 4]]).inverse()
    conjugate_vector((i, Rational(2)), swap)
    alg.real_structure, qi.real_structure
    abelian_split_transformation(split), abelian_split_transformation(alg)
    ce_differential(alg, 2), ce_differential(qi, 1)
    apply_basis_change(alg, t), apply_basis_change(qi, t_qi)
    monkeypatch.undo()
    assert calls == []
