"""The exact elimination kernel over Q and Q(i).

Elimination runs on plain integers rather than scalar objects.  Callers
know one row format, over both fields: the sparse Z[i] row ``{column: (re,
im)}``, a Gaussian integer per entry, with no zero entries, so the zero row
is the empty, false dict.  A row over Q has zero imaginary parts.

* Conversion: `zi_rows` is the one encoder, which clears vectors of
  `Rational`, `Gaussian` or int scalars of one common denominator into Z[i]
  rows.  `decode` is the one decoder, which divides a denominator out of a
  row and makes the scalars of a field.  Callers pass the field and do not
  choose between functions for Q and for Q(i): `rank`, `span` and
  `null_space` take it too, and pick the elimination of that field.
* Over Q the elimination runs on the rows' real parts, ``{column: int}``,
  a format that stays inside this module: `rank` and `span` read the real
  parts into `rank_q`/`rref_q`, `null_space` reads them while it transposes,
  and `q_exact` turns the reduced rows back into Z[i] rows.  Ranking
  rational rows as Z[i] pairs would cost half as much again, so both loops
  stay.
* Rank (`rank_q`/`rank_qi`), reduced row echelon form (`rref_q`/`rref_qi`)
  and the incremental echelon (`zi_reduce`/`zi_insert`) of
  ``exact.RowReducer`` and of the cohomology representatives share
  one elimination step per field, `_q_eliminate` and `_zi_eliminate`:
  a * v - b * pivot with a / b = pivot[col] / v[col].  No row is ever
  divided by a pivot: this is fraction-free elimination (Bareiss, Math.
  Comp. 22 (1968) 565-578; Nakos, Turner and Williams, ACM SIGSAM Bull.
  31(3) (1997) 11-19).  Nor does a step divide out the row's content (over
  Q(i), a gcd in Z[i]): that is done once, to a row that is kept, since
  the rows eliminated on the way to it, or to zero, are read once and
  dropped.  Rank and reduced form run on one loop, `_echelon`, which
  inserts the rows shortest first, each eliminated by the pivot of its
  lowest column until it is empty or holds a free lowest column: its work
  follows the nonzeros of the rows it combines.  A row made by elimination
  is made primitive when it becomes a pivot; a row that becomes a pivot as
  it came stays as it came, so rank takes the rows as they come.  The
  reduced form makes its rows primitive first, back-substitutes with the
  same step, makes each row that back-substitution changed primitive once
  more, and returns primitive rows, which `span` divides by their pivot
  entries to read off the unique reduced row echelon form.  `zi_reduce`
  divides out nothing, as only zero tests and lead-normalized solutions
  are read off its result; `zi_insert` makes the row that it appends
  primitive.  `zi_residual` reduces modulo such an echelon without
  dividing, so that it stays linear, and `zi_plane` tells whether two rows
  span a plane without an echelon at all.
* `span` returns the reduced basis of a span as exact vectors ``(row,
  den)`` in lowest terms (`q_exact`, `zi_exact`), so that equal vectors are
  equal pairs, and `null_space` is the span of [M^T | I] with the first
  part skipped: only the reduced rows that vanish on it are
  back-substituted and returned.  `null_space_within` cuts a subspace
  given by such a basis with more rows, eliminating only in the
  coordinates of that basis, and returns the same vectors as `null_space`
  of all the rows.  `zi_lowest` puts any Z[i] vector in lowest terms, and
  `zi_common` puts several over one denominator again.
  ``exact.Subspace`` keeps its reduced basis in this form, so it stores a
  null space as it comes.
* On Z[i] rows, `zi_conj`, `zi_combine`, `zi_matvec` and `zi_matmul` form
  conjugates, Z[i]-combinations, matrix-vector and matrix products, and
  `zi_solve` reads A^-1 B off one `rref_qi` of [A | B].
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

from .scalars import Q0, Gaussian, Rational

ZiRow = dict[int, tuple[int, int]]

_GAUSSIAN_ZERO = Gaussian(0)


def backend_name() -> str:
    """Name of the elimination kernel; there is only the pure-Python one."""
    return "pure"


# -- conversion from and to scalars ---------------------------------------------


def zi_rows(vectors) -> tuple[list[ZiRow], int]:
    """Scalar vectors as Z[i] rows over one common denominator.

    Returns ``(rows, den)`` with ``vec[j] == (re + im*i) / den`` for each
    entry ``(re, im) = row[j]``, ``den`` the least common denominator of all
    real and imaginary parts; `decode` inverts it.  Entries may be
    `Gaussian`, `Rational` or int.
    """
    types = set(map(type, chain.from_iterable(vectors)))
    if int in types:
        vectors = [[Rational(x) if type(x) is int else x for x in vec] for vec in vectors]
    if Gaussian not in types:  # no imaginary parts: the common case, kept fast
        den = lcm(*{x.den for x in chain.from_iterable(vectors)})
        return [
            {j: (x.num * (den // x.den), 0) for j, x in enumerate(vec) if x.num} for vec in vectors
        ], den
    parts = [[(x.re, x.im) if type(x) is Gaussian else (x, Q0) for x in vec] for vec in vectors]
    den = lcm(*{x.den for vec in parts for pair in vec for x in pair})
    scaled = [[(a.num * (den // a.den), b.num * (den // b.den)) for a, b in vec] for vec in parts]
    return [{j: p for j, p in enumerate(vec) if p[0] or p[1]} for vec in scaled], den


def decode(row: ZiRow, den: int, ncols: int, field: str) -> tuple:
    """The vector ``row / den`` as a tuple of ``ncols`` scalars over ``field``.

    The scalars are `Gaussian` over "Qi" and `Rational` over "Q", where the
    real parts are read.
    """
    if field == "Q":
        out = [Q0] * ncols
        for j, (x, _) in row.items():
            out[j] = Rational(x, den)
        return tuple(out)
    out = [_GAUSSIAN_ZERO] * ncols
    for j, (a, b) in row.items():
        out[j] = Gaussian(Rational(a, den) if a else Q0, Rational(b, den) if b else Q0)
    return tuple(out)


# -- elimination ------------------------------------------------------------------


def rank_q(rows: list[dict], ncols: int) -> int:
    """Rank over Q of sparse integer rows ``{column: int}``, columns below ``ncols``."""
    return len(_echelon(rows, _q_eliminate, _primitive_q))


def rank_qi(rows: list[ZiRow], ncols: int) -> int:
    """Rank over Q(i) of sparse Z[i] rows ``{column: (re, im)}``, columns below ``ncols``."""
    return len(_echelon(rows, _zi_eliminate, _primitive_qi))


def rref_q(rows: list[dict], ncols: int, skip: int = 0) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form over Q of sparse integer rows ``{column: int}``.

    Returns ``(rows, pivots)``: one primitive row per pivot column at or
    after ``skip``, in order, each zero at every other pivot.  Dividing each
    row by its entry at its pivot gives the nonzero rows of the unique
    reduced form that vanish on the first ``skip`` columns.
    """
    return _reduced([_primitive_q(row) for row in rows if row], _q_eliminate, _primitive_q, skip)


def rref_qi(rows: list[ZiRow], ncols: int, skip: int = 0) -> tuple[list[ZiRow], list[int]]:
    """Reduced row echelon form over Q(i) of sparse Z[i] rows; as `rref_q`."""
    return _reduced([_primitive_qi(row) for row in rows if row], _zi_eliminate, _primitive_qi, skip)


def rank(rows: list[ZiRow], ncols: int, field: str) -> int:
    """Rank over ``field`` of Z[i] rows (`rank_q` on their real parts over "Q", `rank_qi`)."""
    if field == "Q":
        return rank_q(_reals(rows), ncols)
    return rank_qi(rows, ncols)


def span(rows: list[ZiRow], ncols: int, field: str) -> list[tuple[ZiRow, int]]:
    """The reduced basis of the span of Z[i] rows over ``field``, as exact vectors.

    Each row of the reduced form (`rref_q` on the real parts over "Q",
    `rref_qi`) comes back divided by its pivot entry, as an exact vector
    ``(row, den)`` in lowest terms (`q_exact`, `zi_exact`), in pivot order.
    """
    return _basis(_reals(rows) if field == "Q" else rows, ncols, field, 0)


def null_space(rows: list[ZiRow], ncols: int, field: str) -> list[tuple[ZiRow, int]]:
    """The reduced basis of {x : row . x = 0 for each row}, as exact vectors.

    ``rows`` are Z[i] rows, columns below ``ncols``.  Row j of the matrix
    reduced, [M^T | I], is column j of ``rows`` (over "Q", of their real
    parts) followed by the j-th unit vector; its reduced rows that vanish
    on the first part are the null space's reduced row echelon basis, each
    times a scale, and `_basis` returns them with the first part skipped.
    """
    m = len(rows)
    if field == "Q":
        aug = [{m + j: 1} for j in range(ncols)]
        for i, row in enumerate(rows):
            for j, (x, _) in row.items():
                aug[j][i] = x
    else:
        aug = [{m + j: (1, 0)} for j in range(ncols)]
        for i, row in enumerate(rows):
            for j, e in row.items():
                aug[j][i] = e
    return _basis(aug, m + ncols, field, m)


def null_space_within(
    basis: list[tuple[ZiRow, int]], rows: list[ZiRow], field: str
) -> list[tuple[ZiRow, int]]:
    """`null_space` of ``rows`` inside the subspace S with the reduced basis ``basis``.

    ``basis`` holds S's reduced basis as `null_space` and `span` return it,
    exact vectors in pivot order.  Returns the reduced basis of {x in S :
    row . x = 0 for each row}, the very exact vectors that `null_space`
    returns for S's annihilator rows followed by ``rows``, and ``basis``
    itself when every row vanishes on S.

    x = sum_k y_k b_k, for the rows b_k of the basis, is zero before the
    pivot of the first b_k with y_k != 0 and equals y_k times b_k's entry
    there, as each b_k is zero at every other pivot.  So the meet's reduced
    basis is the image of the reduced null space of the small matrix
    M[i][k] = row_i . b_k, each image divided by its first entry
    (`zi_exact`).
    """
    small: list[ZiRow] = [{} for _ in rows]
    for k, (b, _) in enumerate(basis):
        for i, e in zi_matvec(rows, b).items():
            small[i][k] = e
    if not any(small):
        return basis
    out = []
    for y, _ in null_space(small, len(basis), field):
        x = zi_combine(*((c, basis[k][0]) for k, c in y.items()))
        out.append(zi_exact(x, min(x)))
    return out


def _reals(rows: list[ZiRow]) -> list[dict]:
    """The real parts of Z[i] rows, as the integer rows that Q's elimination takes."""
    return [{j: x for j, (x, _) in row.items()} for row in rows]


def _basis(rows: list[dict], ncols: int, field: str, skip: int) -> list[tuple[ZiRow, int]]:
    """`span` of rows already in the elimination format of ``field``.

    Only the reduced rows that vanish on the first ``skip`` columns are
    formed, and they come back shifted left by ``skip``.
    """
    if field == "Q":
        red, pivots = rref_q(rows, ncols, skip)
        exact = q_exact
    else:
        red, pivots = rref_qi(rows, ncols, skip)
        exact = zi_exact
    return [
        exact({j - skip: e for j, e in row.items()} if skip else row, p - skip)
        for row, p in zip(red, pivots)
    ]


def q_exact(row: dict, lead: int) -> tuple[ZiRow, int]:
    """An integer row divided by its entry at ``lead``, as Z[i] ``(row, den)`` in lowest terms."""
    g = gcd(*row.values()) * (1 if row[lead] > 0 else -1)
    return {j: (x // g, 0) for j, x in row.items()}, row[lead] // g


def _echelon(pool: list[dict], eliminate, primitive) -> list[tuple[int, dict]]:
    """Echelon form of rows, as ``(pivot column, row)`` pairs in column order.

    The rows are inserted shortest first (a stable sort), to limit fill-in.
    A row whose lowest column has no pivot yet becomes that column's pivot;
    otherwise ``eliminate`` clears the column with that pivot, and the
    result goes on until it is empty or finds a free column.  So each
    returned row is zero before its own pivot, and each step reads only
    the columns of the rows it combines.  The steps divide out no content:
    ``primitive`` divides it out once, of a row that becomes a pivot after
    at least one step, and a row that becomes a pivot as it came stays as
    it came.  The pivot columns are those of the span's reduced form,
    whatever the order.  Empty rows add nothing; rows are never changed in
    place.
    """
    pivots: dict[int, dict] = {}
    for first in sorted(pool, key=len):
        row = first
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row if row is first else primitive(row)
                break
            row = eliminate(row, pivot, col)
    return sorted(pivots.items())


def _reduced(pool: list[dict], eliminate, primitive, skip: int) -> tuple[list[dict], list[int]]:
    """`_echelon`'s rows with pivots at or after ``skip``, each later pivot cleared from them.

    A row of the echelon is zero before its pivot, so the rows kept are
    zero on the first ``skip`` columns, and back-substitution among them
    alone gives the rows of the reduced form that vanish there.  A row
    that back-substitution changed is made primitive once, when every
    later pivot has been cleared from it; the others come back as
    `_echelon` keeps them.
    """
    pairs = [(col, row) for col, row in _echelon(pool, eliminate, primitive) if col >= skip]
    rows = [row for _, row in pairs]
    # Last pivot first: rows[k] is already zero at every later pivot, so
    # subtracting it keeps the rows above zero there too.
    for k in range(len(pairs) - 1, -1, -1):
        col, kept = pairs[k]
        if rows[k] is not kept:
            rows[k] = primitive(rows[k])
        pivot = rows[k]
        for i in range(k):
            if col in rows[i]:
                rows[i] = eliminate(rows[i], pivot, col)
    return rows, [col for col, _ in pairs]


def _q_eliminate(row: dict, pivot: dict, col: int) -> dict:
    """a * row - b * pivot, zero in column ``col``, its content not divided out.

    a / b = pivot[col] / row[col] in lowest terms.  The zero row comes back
    empty.  Only a row that is kept is made primitive (`_echelon`,
    `_reduced`): the rows eliminated on the way to it, or to zero, never
    are.
    """
    p, f = pivot[col], row[col]
    g = gcd(p, f)
    a, b = p // g, f // g
    out = dict(row) if a == 1 else {j: a * x for j, x in row.items()}
    for j, y in pivot.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    return out


def _primitive_q(vec: dict) -> dict:
    g = gcd(*vec.values())
    return {j: x // g for j, x in vec.items()} if g > 1 else vec


def _primitive_qi(vec: ZiRow) -> ZiRow:
    """``vec`` divided by a gcd in Z[i] of its entries.

    Dividing by the integer gcd of the parts alone would leave Gaussian
    common factors (1 + i, 2 + i, ...), which eliminating multiplies in
    again and again: their growth made back-substitution on a 24 x 28
    matrix run for minutes.  A primitive row is fixed by its line up to a
    unit, so its entries stay as small as the minors that determine it.
    """
    # A common factor divides every norm x^2 + y^2 = e * conj(e), hence their
    # gcd n, and n == 1 settles the row at once.
    n = 0
    for x, y in vec.values():
        n = gcd(n, x * x + y * y)
        if n == 1:
            return vec
    g = gcd(*chain.from_iterable(vec.values()))
    if g > 1:
        vec = {j: (x // g, y // g) for j, (x, y) in vec.items()}
        n //= g * g
        if n == 1:
            return vec
    d = (n, 0)
    for e in vec.values():
        dr, di = d = _zi_gcd(e, d)
        n = dr * dr + di * di
        if n == 1:
            return vec
    return {j: ((x * dr + y * di) // n, (y * dr - x * di) // n) for j, (x, y) in vec.items()}


def _zi_gcd(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """A gcd of two Gaussian integers, by Euclid's algorithm with rounded quotients."""
    ar, ai = a
    br, bi = b
    while br or bi:
        n = br * br + bi * bi
        xr, xi = ar * br + ai * bi, ai * br - ar * bi  # a * conj(b)
        qr, qi = (2 * xr + n) // (2 * n), (2 * xi + n) // (2 * n)
        ar, ai, br, bi = br, bi, ar - qr * br + qi * bi, ai - qr * bi - qi * br
    return ar, ai


# -- sparse rows over Z[i] ----------------------------------------------------------


def zi_conj(row: ZiRow) -> ZiRow:
    """The entrywise complex conjugate of a row."""
    return {j: (a, -b) for j, (a, b) in row.items()}


def zi_combine(*terms) -> ZiRow:
    """The sum of ``c * row`` over the ``(c, row)`` terms, ``c = (re, im)`` in Z[i].

    The first nonzero term is copied or scaled as a whole, and only a sum in
    which two terms met at some column is searched for zero entries: Z[i]
    has no zero divisors, so a nonzero c times a nonzero entry is nonzero.
    """
    out: ZiRow = {}
    met = False
    for (cr, ci), row in terms:
        if not (cr or ci):
            continue
        if not out:
            if cr == 1 and not ci:
                out = dict(row)
            else:
                out = {j: (cr * x - ci * y, cr * y + ci * x) for j, (x, y) in row.items()}
            continue
        for j, (x, y) in row.items():
            e = out.get(j)
            if e is None:
                out[j] = (cr * x - ci * y, cr * y + ci * x)
            else:
                out[j] = (e[0] + cr * x - ci * y, e[1] + cr * y + ci * x)
                met = True
    return {j: e for j, e in out.items() if e[0] or e[1]} if met else out


def zi_int_row(ints) -> ZiRow:
    """Dense integers as a Z[i] row with zero imaginary parts."""
    return {j: (x, 0) for j, x in enumerate(ints) if x}


def zi_matvec(rows, x: ZiRow) -> ZiRow:
    """The matrix with the Z[i] rows ``rows`` times the Z[i] row ``x``."""
    out = {}
    for i, row in enumerate(rows):
        re = im = 0
        for j, (a, b) in row.items():
            e = x.get(j)
            if e is not None:
                c, d = e
                re += a * c - b * d
                im += a * d + b * c
        if re or im:
            out[i] = (re, im)
    return out


def zi_matmul(a, b) -> list[ZiRow]:
    """The matrix with the Z[i] rows ``a`` times the matrix with the Z[i] rows ``b``."""
    return [zi_combine(*((e, b[k]) for k, e in row.items())) for row in a]


def zi_solve(a: list[ZiRow], b: list[ZiRow]) -> tuple[list[ZiRow], int] | None:
    """A^-1 B for square A and B with the Z[i] rows ``a`` and ``b``; None when A is singular.

    `rref_qi` reduces [A | B] to rows p_k [unit_k | row k of A^-1 B], p_k in
    Z[i]; their right halves over p_k are put over one denominator.
    """
    n = len(a)
    aug = [{**x, **{n + j: e for j, e in y.items()}} for x, y in zip(a, b)]
    red, pivots = rref_qi(aug, 2 * n)
    if pivots != list(range(n)):
        return None
    exact = (zi_exact(row, k) for k, row in enumerate(red))
    return zi_common([({j - n: e for j, e in row.items() if j >= n}, den) for row, den in exact])


# An exact vector is a pair ``(row, den)``, the Z[i] row divided by the
# integer den.  Spans and zero tests do not depend on scale, so a bare row
# may carry any nonzero factor; where a vector's value matters it travels as
# such a pair.


def zi_exact(row: ZiRow, lead: int) -> tuple[ZiRow, int]:
    """``row`` divided by its entry at ``lead``, as ``(row, den)`` in lowest terms.

    In lowest terms (den > 0 and no common factor of den and every part)
    equal vectors are equal pairs.
    """
    pr, pi = row[lead]
    if pi:
        row, den = zi_combine(((pr, -pi), row)), pr * pr + pi * pi
    else:
        den = pr
    return zi_lowest(row, den)


def zi_lowest(row: ZiRow, den: int) -> tuple[ZiRow, int]:
    """The exact vector ``row / den`` in lowest terms, for a nonzero ``den``; ``row`` if it is."""
    g = gcd(den, *chain.from_iterable(row.values()))
    if den < 0:
        g = -g
    if g == 1:
        return row, den
    return {j: (x // g, y // g) for j, (x, y) in row.items()}, den // g


def zi_common(vectors) -> tuple[list[ZiRow], int]:
    """Exact vectors ``(row, den)`` as Z[i] rows over their least common denominator."""
    den = lcm(*(d for _, d in vectors))
    return [zi_combine(((den // d, 0), row)) for row, d in vectors], den


def _zi_eliminate(row: ZiRow, pivot: ZiRow, col: int) -> ZiRow:
    """a * row - b * pivot, zero in column ``col``, its content not divided out.

    a / b = pivot[col] / row[col], both Gaussian integers divided by the
    integer gcd of their four parts.  The zero row comes back empty.  As
    over Q, only a row that is kept is made primitive.
    """
    pr, pi = pivot[col]
    fr, fi = row[col]
    g = gcd(pr, pi, fr, fi)
    ar, ai, br, bi = pr // g, pi // g, fr // g, fi // g
    if ar == 1 and not ai:
        out = dict(row)
    else:
        out = {j: (ar * x - ai * y, ar * y + ai * x) for j, (x, y) in row.items()}
    for j, (u, v) in pivot.items():
        x, y = out.get(j, (0, 0))
        x -= br * u - bi * v
        y -= br * v + bi * u
        if x or y:
            out[j] = (x, y)
        else:
            del out[j]
    return out


def zi_reduce(row: ZiRow, echelon: list[tuple[int, ZiRow]]) -> ZiRow:
    """``row`` reduced against echelon rows; empty exactly when it lies in their span.

    ``echelon`` holds ``(lead, row)`` pairs, each row nonzero at its lead and
    zero at the leads of the rows before it, as `zi_insert` builds them.  The
    result is zero at every lead.  No step divides out its content, so the
    result is ``row`` times a nonzero Gaussian integer plus a vector of the
    span, at a scale that no caller reads.
    """
    for lead, pivot in echelon:
        if lead in row:
            row = _zi_eliminate(row, pivot, lead)
            if not row:
                break
    return row


def zi_residual(row: ZiRow, echelon: list[tuple[int, ZiRow]]) -> ZiRow:
    """A Z[i]-linear reduction of ``row`` modulo the span of echelon rows.

    ``echelon`` is as for `zi_reduce`.  Each ``(lead, pivot)`` in turn sets
    row <- pivot[lead] * row - row[lead] * pivot, also when row[lead] is zero,
    and no content is divided out, so the residual of a Z[i]-combination of
    rows is the same combination of their residuals.  The result is row
    times the product of the lead entries plus a vector of the span, and is
    zero at every lead: it is empty exactly when ``row`` lies in the span.
    """
    for lead, pivot in echelon:
        pr, pi = pivot[lead]
        fr, fi = row.get(lead, (0, 0))
        out = {j: (pr * x - pi * y, pr * y + pi * x) for j, (x, y) in row.items()}
        if fr or fi:
            for j, (u, v) in pivot.items():
                x, y = out.get(j, (0, 0))
                x -= fr * u - fi * v
                y -= fr * v + fi * u
                if x or y:
                    out[j] = (x, y)
                else:
                    del out[j]
        row = out
    return row


def zi_plane(x: ZiRow, y: ZiRow) -> bool:
    """Whether the Z[i] rows ``x`` and ``y`` span a plane over Q(i).

    They do when x is not zero and x[j] * y - y[j] * x is not, at j = min x:
    that row is zero at j, so it vanishes exactly when y is a multiple of x.
    Its entries are compared as they are formed, and none is kept.
    """
    if not x:
        return False
    lead = min(x)
    pr, pi = x[lead]
    fr, fi = y.get(lead, (0, 0))
    for j in x.keys() | y.keys():
        xr, xi = x.get(j, (0, 0))
        yr, yi = y.get(j, (0, 0))
        if pr * yr - pi * yi != fr * xr - fi * xi or pr * yi + pi * yr != fr * xi + fi * xr:
            return True
    return False


def zi_insert(echelon: list[tuple[int, ZiRow]], row: ZiRow) -> bool:
    """Append ``row``, reduced, to ``echelon`` if nonzero; True when the span grew.

    The appended row is made primitive, the one division of its content.
    """
    row = zi_reduce(row, echelon)
    if not row:
        return False
    echelon.append((min(row), _primitive_qi(row)))
    return True
