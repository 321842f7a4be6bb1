"""The elimination kernel against the independent Fraction oracles."""

from fractions import Fraction
import random
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nilqp import kernel
from nilqp.exact import ExactMatrix, RowReducer
from nilqp.scalars import Gaussian, Rational
from oracles import frac_inverse_qi, frac_rank, frac_rref, frac_rref_qi

small_q = st.tuples(
    st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=4)
)


def norm_q(t):
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


def int_row(row):
    """A row of Fractions as a sparse integer row over its common denominator."""
    den = lcm(*(x.denominator for x in row))
    return {j: int(x * den) for j, x in enumerate(row) if x}


def zi_int_row(row):
    """A row of (re, im) Fraction pairs as a sparse Z[i] row."""
    den = lcm(*(x.denominator for pair in row for x in pair))
    return {j: (int(x * den), int(y * den)) for j, (x, y) in enumerate(row) if x or y}


def rank_rows(rows):
    """Rows of (num, den) pairs in the sparse integer form the kernel takes."""
    return [int_row(row) for row in as_fractions(rows)]


def divided_by_pivots(out, piv, nrows, ncols):
    """The kernel's RREF rows, each divided by its pivot entry, as Fraction rows.

    Zero rows are appended up to ``nrows``, as `frac_rref` returns them.
    """
    rows = [
        [Fraction(row.get(j, 0), row[p]) for j in range(ncols)] for row, p in zip(out, piv)
    ]
    return rows + [[Fraction(0)] * ncols] * (nrows - len(rows))


big_q = st.tuples(
    st.integers(min_value=-(10**20), max_value=10**20),
    st.integers(min_value=1, max_value=10**6),
)


@settings(max_examples=40, deadline=None)
@given(q_matrices(big_q, max_dim=3))
def test_dispatch_handles_arbitrary_precision(data):
    rows, ncols = data
    out, piv = kernel.rref_q(rank_rows(rows), ncols)
    assert (divided_by_pivots(out, piv, len(rows), ncols), piv) == frac_rref(
        as_fractions(rows), ncols
    )
    assert kernel.rank_q(rank_rows(rows), ncols) == frac_rank(as_fractions(rows))


@settings(max_examples=80, deadline=None)
@given(q_matrices(small_q))
def test_rref_idempotent_and_rank_consistent(data):
    rows, ncols = data
    out, piv = kernel.rref_q(rank_rows(rows), ncols)
    again, piv2 = kernel.rref_q(out, ncols)
    assert again == out and piv2 == piv
    assert kernel.rank_q(rank_rows(rows), ncols) == len(piv)


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
    zi = [zi_int_row(row) for row in rows]
    assert kernel.rank_qi(zi, ncols) == _realified_rank(rows)


def _pairs(m):
    """An `ExactMatrix` over Q(i) as rows of (re, im) Fraction pairs."""
    return [
        [(Fraction(x.re.num, x.re.den), Fraction(x.im.num, x.im.den)) for x in row]
        for row in m.entries
    ]


@settings(max_examples=60, deadline=None)
@given(qi_matrices_with_dependent_rows(max_dim=4))
def test_qi_rref_matches_fraction_oracle(data):
    rows, ncols = data
    red, piv = ExactMatrix([_gaussians(row) for row in rows]).rref()
    assert red.field == "Qi"
    assert all(type(x) is Gaussian for row in red.entries for x in row)
    assert (_pairs(red), piv) == frac_rref_qi(rows, ncols)


@settings(max_examples=60, deadline=None)
@given(qi_matrices_with_dependent_rows(max_dim=4))
def test_qi_inverse_matches_fraction_oracle(data):
    rows, ncols = data
    square = rows[:ncols]
    assume(len(square) == ncols)
    want = frac_inverse_qi(square)
    m = ExactMatrix([_gaussians(row) for row in square])
    if want is None:
        with pytest.raises(ValueError):
            m.inverse()
    else:
        assert _pairs(m.inverse()) == want


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
    assert [kernel.decode(r, den, ncols, "Qi") for r in encoded] == vecs
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
    assert kernel.decode(got, den, ncols, "Qi") == _gaussians(want)


def test_zi_exact_vectors_are_in_lowest_terms():
    # -2 X1 + 4 X2 over its lead, and (1 + i) X1 + 2 X2 over its lead (1 + i):
    # equal vectors give equal pairs, whatever scale the row carried.
    assert kernel.zi_exact({0: (-2, 0), 1: (4, 0)}, 0) == ({0: (1, 0), 1: (-2, 0)}, 1)
    assert kernel.zi_exact({0: (6, 0), 1: (-12, 0)}, 0) == ({0: (1, 0), 1: (-2, 0)}, 1)
    assert kernel.zi_exact({0: (1, 1), 1: (2, 0)}, 0) == ({0: (1, 0), 1: (1, -1)}, 1)
    assert kernel.zi_exact({0: (0, 3), 1: (1, 0)}, 0) == ({0: (3, 0), 1: (0, -1)}, 3)


zi_entries = st.tuples(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6)
)
nonzero = st.integers(min_value=-12, max_value=12).filter(bool)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(zi_entries, min_size=1, max_size=4),
    st.lists(zi_entries, min_size=1, max_size=4),
    nonzero,
    nonzero,
    nonzero,
)
def test_zi_lowest_gives_equal_pairs_for_equal_vectors(x, y, dx, dy, k):
    def row(dense):
        return {j: e for j, e in enumerate(dense) if e != (0, 0)}

    def value(r, den):
        zero = [(0, 0)] * 4
        return [(Fraction(a, den), Fraction(b, den)) for a, b in map(r.get, range(4), zero)]

    lowest = kernel.zi_lowest(row(x), dx)
    r, den = lowest
    assert value(r, den) == value(row(x), dx)
    assert den > 0 and gcd(den, *(p for e in r.values() for p in e)) == 1
    # The same vector at another scale, and another vector.
    scaled = {j: (k * a, k * b) for j, (a, b) in row(x).items()}
    assert kernel.zi_lowest(scaled, k * dx) == lowest
    other = kernel.zi_lowest(row(y), dy)
    assert (other == lowest) == (value(row(y), dy) == value(row(x), dx))


def _zi_ints(rows):
    """Rows of (re, im) Fractions times one common denominator, as Z[i] rows."""
    den = lcm(*(x.denominator for row in rows for e in row for x in e))
    return [
        {j: (int(x * den), int(y * den)) for j, (x, y) in enumerate(row) if x or y}
        for row in rows
    ]


@settings(max_examples=80, deadline=None)
@given(qi_matrices_with_dependent_rows(max_dim=4), st.sampled_from(("Q", "Qi")))
def test_null_space_matches_fraction_oracle(data, field):
    rows, ncols = data
    if field == "Q":
        # The real parts, and the sum of the first and the last of them, so
        # that the rank can fall short over Q too.
        real = [[x for x, _ in row] for row in rows]
        real.append([x + y for x, y in zip(real[0], real[-1])])
        # Callers pass Z[i] rows over both fields; over Q their imaginary
        # parts are zero, and so are those of the basis returned.
        zi = [{j: (x, 0) for j, x in int_row(row).items()} for row in real]
        basis = kernel.null_space(zi, ncols, "Q")
        assert len(basis) == ncols - frac_rank(real)
        assert not any(y for r, _ in basis for _, y in r.values())
        vecs = [[Fraction(r.get(j, (0, 0))[0], den) for j in range(ncols)] for r, den in basis]
        for vec in vecs:
            for row in real:
                assert sum(a * x for a, x in zip(row, vec)) == 0
        # The basis is in reduced row echelon form, so it is its own reduction.
        if vecs:
            want, _ = frac_rref(vecs, ncols)
            assert want == vecs
        # Exact vectors are in lowest terms.
        assert all(den > 0 and gcd(den, *(x for x, _ in r.values())) == 1 for r, den in basis)
        return
    basis = kernel.null_space(_zi_ints(rows), ncols, "Qi")
    pairs = [(0, 0)] * ncols
    assert len(basis) == ncols - _realified_rank(rows)
    vecs = [
        [(Fraction(x, den), Fraction(y, den)) for x, y in map(r.get, range(ncols), pairs)]
        for r, den in basis
    ]
    for vec in vecs:
        for row in rows:
            assert sum(a * x - b * y for (a, b), (x, y) in zip(row, vec)) == 0
            assert sum(a * y + b * x for (a, b), (x, y) in zip(row, vec)) == 0
    if vecs:
        want, _ = frac_rref_qi(vecs, ncols)
        assert want == vecs
    assert all(
        den > 0 and gcd(den, *(x for e in r.values() for x in e)) == 1 for r, den in basis
    )
    # zi_common puts the exact vectors back over one denominator.
    common, den = kernel.zi_common(basis)
    assert [kernel.decode(r, den, ncols, "Qi") for r in common] == [
        kernel.decode(r, d, ncols, "Qi") for r, d in basis
    ]


def test_null_space_within_returns_the_null_space_of_all_rows():
    # The depth-first search cuts a node's spaces with its new constraint
    # rows only; the basis must be the very exact vectors that the null
    # space of the annihilator and the new rows together gives, over V of
    # every size, on subspaces from 0 to v vectors, and with no new rows,
    # rows that vanish on the subspace and rows that repeat one another.
    rng = random.Random(31)
    seen = set()

    def row(v, field):
        return {
            j: e
            for j in range(v)
            if rng.random() < 0.6
            and (e := (rng.randint(-3, 3), rng.randint(-3, 3) if field == "Qi" else 0)) != (0, 0)
        }

    for trial in range(600):
        field = ("Q", "Qi")[trial % 2]
        v = rng.randint(1, 7)
        ann = [row(v, field) for _ in range(rng.randint(0, v + 1))]
        basis = kernel.null_space(ann, v, field)
        rows = [row(v, field) for _ in range(rng.randint(0, 3))]
        if rows and trial % 3 == 0:
            c = (rng.randint(1, 3), rng.randint(-2, 2) if field == "Qi" else 0)
            rows.append(kernel.zi_combine((c, rows[0])))
        if ann and trial % 5 == 0:
            rows.append(ann[0])
        got = kernel.null_space_within(basis, rows, field)
        assert got == kernel.null_space(ann + rows, v, field)
        seen.add((len(basis), not rows, got is basis, len(got) < len(basis)))
    sizes = {size for size, *_ in seen}
    assert sizes == set(range(8))
    assert {tuple(flags) for _, *flags in seen} == {
        (True, True, False),  # no new rows
        (False, True, False),  # rows that vanish on the subspace
        (False, False, True),  # rows that cut it
    }


def test_zi_matvec_matches_fractions():
    rows = [{0: (1, 2), 2: (-3, 0)}, {}, {1: (0, 1)}]
    x = {0: (2, -1), 1: (1, 1), 2: (0, 4)}
    # (1 + 2i)(2 - i) - 3 * 4i = 4 + 3i - 12i; i * (1 + i) = -1 + i
    assert kernel.zi_matvec(rows, x) == {0: (4, -9), 2: (-1, 1)}
    # Row 0 of the product: (1 + 2i) x - 3 * (i X2); rows 1 and 2 meet zero rows.
    product = kernel.zi_matmul(rows, [x, {}, {1: (0, 1)}])
    assert product == [{0: (4, 3), 1: (-1, 0), 2: (-8, 4)}, {}, {}]
    assert kernel.zi_int_row([0, 3, -1]) == {1: (3, 0), 2: (-1, 0)}


def _column_sweep(pool: list[dict], eliminate) -> list[tuple[int, dict]]:
    """The column sweep that `kernel._echelon` replaced, kept as its reference.

    Each column that some row holds is visited in turn; its pivot is the
    shortest row holding it, to limit fill-in, and ``eliminate`` clears the
    column from every other row.  A new row only holds columns of the rows
    it came from, so no other column can gain a pivot.  Each returned row
    is zero at the pivots before its own; rows are never changed in place.
    """
    pairs = []
    for col in sorted(set().union(*pool)):
        if not pool:
            break
        pivot = min((row for row in pool if col in row), key=len, default=None)
        if pivot is None:
            continue
        pairs.append((col, pivot))
        rest = []
        for row in pool:
            if row is pivot:
                continue
            if col in row:
                row = eliminate(row, pivot, col)
                if not row:
                    continue
            rest.append(row)
        pool = rest
    return pairs


def _echelon_pool(rng: random.Random, field: str) -> tuple[list[dict], int]:
    """Seeded sparse rows over ``field``, in the elimination format of that field.

    Besides random rows the pool holds a duplicate, a multiple by a common
    content up to 2**70 (over Q(i), times a Gaussian integer of that size),
    a combination of two rows, an empty row, and two rows of one length.
    """
    ncols = rng.randint(1, 9)
    parts = (-3, -2, -1, 1, 2, 3, 5)

    def entry():
        return (rng.choice(parts), rng.choice((0,) + parts) if field == "Qi" else 0)

    def some_row(length):
        return {j: entry() for j in rng.sample(range(ncols), length)}

    rows = [some_row(rng.randint(1, ncols)) for _ in range(rng.randint(1, 8))]
    length = rng.randint(1, ncols)
    rows += [some_row(length), some_row(length)]
    rows.append(dict(rng.choice(rows)))
    k = rng.randint(2, 2**70)
    content = (k, k * rng.randint(-1, 1) if field == "Qi" else 0)
    rows.append(kernel.zi_combine((content, rng.choice(rows))))
    a, b = rng.sample(rows, 2)
    rows.append(kernel.zi_combine((entry(), a), ((1, 0), b)))
    rows.append({})
    rng.shuffle(rows)
    return (kernel._reals(rows) if field == "Q" else rows), ncols


def _fraction_rows(rows: list[dict], ncols: int, field: str) -> list[list]:
    """Elimination rows as dense Fractions over Q, or (re, im) Fraction pairs over Q(i)."""
    if field == "Q":
        return [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    return [[tuple(map(Fraction, row.get(j, (0, 0)))) for j in range(ncols)] for row in rows]


def _c_over(a, b):
    """The quotient a / b of complex Fractions given as (re, im) pairs."""
    (x, y), (u, v) = a, b
    n = u * u + v * v
    return ((x * u + y * v) / n, (y * u - x * v) / n)


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_echelon_insertion_keeps_the_column_sweeps_pivots(field):
    # Over seeded pools and each pool reversed (so that rows of one length
    # come in both orders): the pivot columns of the column sweep, each row
    # zero before its pivot, the reduced rows primitive and, over their
    # pivots, equal to the Fraction RREF, and the rank of the rows as they
    # come (not made primitive) equal to the Fraction rank.
    if field == "Q":
        eliminate, rank, rref = kernel._q_eliminate, kernel.rank_q, kernel.rref_q
        primitive = kernel._primitive_q
    else:
        eliminate, rank, rref = kernel._zi_eliminate, kernel.rank_qi, kernel.rref_qi
        primitive = kernel._primitive_qi
    rng = random.Random(36)
    ties = 0
    for _ in range(150):
        pool, ncols = _echelon_pool(rng, field)
        lengths = [len(row) for row in pool if row]
        ties += len(lengths) > len(set(lengths))
        for rows in (pool, pool[::-1]):
            got = kernel._echelon(rows, eliminate, primitive)
            want = _column_sweep([row for row in rows if row], eliminate)
            assert [col for col, _ in got] == [col for col, _ in want]
            assert all(min(row) == col for col, row in got)
            dense = _fraction_rows(rows, ncols, field)
            red, piv = rref(rows, ncols)
            assert all(primitive(row) == row for row in red)
            red = zip(_fraction_rows(red, ncols, field), piv)
            if field == "Q":
                want_rows, want_piv = frac_rref(dense, ncols)
                mine = [[x / row[p] for x in row] for row, p in red]
                assert rank(rows, ncols) == frac_rank(dense)
            else:
                want_rows, want_piv = frac_rref_qi(dense, ncols)
                mine = [[_c_over(x, row[p]) for x in row] for row, p in red]
                assert rank(rows, ncols) == _realified_rank(dense)
            assert piv == want_piv and mine == want_rows[: len(piv)]
    assert ties >= 100


def _content(rng: random.Random, field: str) -> tuple[int, int]:
    """A Z[i] content: an integer up to 2**70, over Q(i) times (1 + i)^a (2 + i)^b."""
    c = (rng.choice((-1, 1)) * rng.randint(1, 2**70), 0)
    if field == "Qi":
        for factor in [(1, 1)] * rng.randint(0, 8) + [(2, 1)] * rng.randint(0, 6):
            c = _zi_mul(c, factor)
    return c


def _zi_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _chain_pool(rng: random.Random, field: str, ncols: int, rank: int) -> list[dict]:
    """Dense Z[i] rows of the given rank, each times a `_content`.

    ``rank`` rows of small parts and a few combinations of them, shuffled:
    of one length, so each row is inserted in turn and the later ones are
    eliminated column by column through most of the pivots.
    """

    def part():
        return rng.choice((-3, -2, -1, 1, 2, 3))

    base = [
        {j: (part(), part() if field == "Qi" else 0) for j in range(ncols)} for _ in range(rank)
    ]
    combos = [
        kernel.zi_combine(*(((part(), 0), row) for row in rng.sample(base, 3))) for _ in range(5)
    ]
    rows = [kernel.zi_combine((_content(rng, field), row)) for row in base + combos]
    rng.shuffle(rows)
    return rows


def _in_fraction_span(x: dict, rref_rows: list, pivots: list, ncols: int, field: str) -> bool:
    """Whether the Z[i] row x lies in the span of a Fraction reduced row echelon form.

    x minus x[p] times the row of each pivot p is zero exactly when it does.
    """
    if field == "Q":
        rest = [Fraction(x.get(j, (0, 0))[0]) for j in range(ncols)]
        for row, p in zip(rref_rows, pivots):
            c = rest[p]
            rest = [a - c * b for a, b in zip(rest, row)]
        return not any(rest)
    rest = [tuple(map(Fraction, x.get(j, (0, 0)))) for j in range(ncols)]
    for row, p in zip(rref_rows, pivots):
        c = rest[p]
        rest = [tuple(a - b for a, b in zip(r, _zi_mul(c, y))) for r, y in zip(rest, row)]
    return not any(a or b for a, b in rest)


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_elimination_keeps_content_until_a_row_is_kept(monkeypatch, field):
    # Rows carry contents up to 2**70 (over Q(i) times powers of 1 + i and
    # 2 + i) through chains of 20 and more elimination steps, none of which
    # divides a content out.  The rank and the reduced form agree with the
    # Fraction oracles, every reduced row and every row of an incremental
    # echelon is primitive, `zi_reduce` empties exactly the rows of the
    # span, and no input row is changed in place.
    name = "_q_eliminate" if field == "Q" else "_zi_eliminate"
    original = getattr(kernel, name)
    last, chain, longest = [None], [0], [0]

    def counted(row, pivot, col):
        chain[0] = chain[0] + 1 if row is last[0] else 1
        longest[0] = max(longest[0], chain[0])
        last[0] = original(row, pivot, col)
        return last[0]

    monkeypatch.setattr(kernel, name, counted)
    if field == "Q":
        rank, rref = kernel.rank_q, kernel.rref_q
    else:
        rank, rref = kernel.rank_qi, kernel.rref_qi
    rng = random.Random(38)
    for _ in range(3):
        ncols = rng.randint(22, 24)
        rows = _chain_pool(rng, field, ncols, ncols - 2)
        saved = [dict(row) for row in rows]
        pool = kernel._reals(rows) if field == "Q" else rows
        dense = _fraction_rows(pool, ncols, field)
        red, piv = rref(pool, ncols)
        fractions = zip(_fraction_rows(red, ncols, field), piv)
        if field == "Q":
            want_rows, want_piv = frac_rref(dense, ncols)
            mine = [[x / row[p] for x in row] for row, p in fractions]
            assert all(gcd(*row.values()) == 1 for row in red)
        else:
            want_rows, want_piv = frac_rref_qi(dense, ncols)
            mine = [[_c_over(x, row[p]) for x in row] for row, p in fractions]
            assert all(kernel._primitive_qi(row) == row for row in red)
        assert piv == want_piv == list(range(ncols - 2))
        assert mine == want_rows[: len(piv)]
        assert rank(pool, ncols) == len(want_piv)
        echelon: list = []
        assert sum(kernel.zi_insert(echelon, row) for row in rows) == ncols - 2
        assert all(kernel._primitive_qi(row) == row for _, row in echelon)
        for trial in range(6):
            x = kernel.zi_combine(*((_content(rng, field), row) for row in rng.sample(rows, 4)))
            if trial % 2:
                x = kernel.zi_combine(((1, 0), x), ((1, 0), {rng.randrange(ncols): (1, 0)}))
            in_span = _in_fraction_span(x, want_rows[: len(piv)], piv, ncols, field)
            assert (not kernel.zi_reduce(x, echelon)) == in_span
            assert in_span == (trial % 2 == 0)
        assert rows == saved
    assert longest[0] >= 20
