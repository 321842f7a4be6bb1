"""The exact elimination kernel over Q and Q(i).

Elimination runs on plain integers rather than scalar objects, on one row
format per field: ``{column: int}`` over Q and the Z[i] row
``{column: (re, im)}`` (a Gaussian integer per entry) over Q(i).  Neither
holds zero entries, so the zero row is the empty, false dict.

* `q_ints` and `zi_pairs` clear a vector of scalars of its denominators into
  dense integers, or dense Z[i] pairs, over one least common denominator;
  ``liealg`` encodes its integer table of structure constants
  (`liealg.structure_table`), the vectors it brackets and the matrices of a
  change of basis with them.  `int_rows` clears a matrix of its
  denominators into sparse rows, `zi_rows`/`zi_row` do so for vectors, and
  `q_decode`/`zi_decode` divide a denominator out again.
* Rank (`rank_q`/`rank_qi`), reduced row echelon form (`rref_q`/`rref_qi`)
  and the incremental echelon (`zi_reduce`/`zi_insert`) of
  ``exact.RowReducer`` and of the cohomology representatives share
  one elimination step per field, `_q_eliminate` and `_zi_eliminate`:
  a * v - b * pivot with a / b = pivot[col] / v[col], then the row's content
  (over Q(i), a gcd in Z[i]) divided out.  No row is ever divided by a
  pivot: this is fraction-free elimination (Bareiss, Math. Comp. 22 (1968)
  565-578; Nakos, Turner and Williams, ACM SIGSAM Bull. 31(3) (1997)
  11-19).  Rank and reduced form run on one loop, `_echelon`; the reduced
  form back-substitutes with the same step and returns primitive rows,
  which the caller divides by their pivot entries to read off the unique
  reduced row echelon form.  `zi_residual` reduces modulo such an echelon
  without dividing, so that it stays linear.
* `null_space` is the one null-space routine, over either field: one
  `rref_q`/`rref_qi` of [M^T | I].  It returns exact vectors ``(row, den)``
  in lowest terms (`q_exact`, `zi_exact`), so that equal vectors are equal
  pairs; `zi_lowest` puts any Z[i] one in lowest terms, and `zi_common`
  puts several over one denominator again.
* On Z[i] rows, `zi_conj`, `zi_combine`, `zi_matvec` and `zi_matmul` form
  conjugates, Z[i]-combinations, matrix-vector and matrix products.
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


def q_ints(vec) -> tuple[list[int], int]:
    """`Rational` entries as ``(ints, den)`` with ``vec[j] == ints[j] / den``.

    ``den`` is the least common denominator of the entries.
    """
    den = lcm(*{x.den for x in vec})
    if den == 1:
        return [x.num for x in vec], 1
    return [x.num * (den // x.den) for x in vec], den


def zi_pairs(vec) -> tuple[list[tuple[int, int]], int]:
    """`Gaussian`/`Rational` entries as dense Z[i] pairs over one denominator.

    Returns ``(pairs, den)`` with ``vec[j] == (re + im*i) / den`` for
    ``(re, im) = pairs[j]``, ``den`` the least common denominator of all
    real and imaginary parts.
    """
    if Gaussian not in map(type, vec):
        ints, den = q_ints(vec)
        return [(x, 0) for x in ints], den
    re = [x.re if type(x) is Gaussian else x for x in vec]
    im = [x.im if type(x) is Gaussian else Q0 for x in vec]
    den = lcm(*{x.den for x in re}, *{x.den for x in im})
    if den == 1:
        return [(a.num, b.num) for a, b in zip(re, im)], 1
    return [(a.num * (den // a.den), b.num * (den // b.den)) for a, b in zip(re, im)], den


def int_rows(rows, field: str) -> list[dict]:
    """Rows of scalars as sparse integer rows for the elimination routines.

    The rows are multiplied by the least common denominator of all their
    entries, which changes neither their spans nor which entries are
    nonzero: over "Q" each becomes ``{column: int}`` (every entry a
    `Rational`), over "Qi" a Z[i] row ``{column: (re, im)}`` (every entry a
    `Gaussian`).
    """
    if field == "Qi":
        den = lcm(*{x.re.den for row in rows for x in row})
        den = lcm(den, *{x.im.den for row in rows for x in row})
        return [
            {
                j: (x.re.num * (den // x.re.den), x.im.num * (den // x.im.den))
                for j, x in enumerate(row)
                if x.re.num or x.im.num
            }
            for row in rows
        ]
    den = lcm(*{x.den for row in rows for x in row})
    return [{j: x.num * (den // x.den) for j, x in enumerate(row) if x.num} for row in rows]


def q_decode(row: dict, den: int, ncols: int) -> tuple[Rational, ...]:
    """The vector ``row / den`` as a tuple of ``ncols`` `Rational` scalars."""
    out = [Q0] * ncols
    for j, x in row.items():
        out[j] = Rational(x, den)
    return tuple(out)


# -- elimination ------------------------------------------------------------------


def rank_q(rows: list[dict], ncols: int) -> int:
    """Rank over Q of sparse integer rows ``{column: int}``, columns below ``ncols``."""
    return len(_echelon([_primitive_q(row) for row in rows if row], _q_eliminate))


def rank_qi(rows: list[ZiRow], ncols: int) -> int:
    """Rank over Q(i) of sparse Z[i] rows ``{column: (re, im)}``, columns below ``ncols``."""
    return len(_echelon([_primitive_qi(row) for row in rows if row], _zi_eliminate))


def rref_q(rows: list[dict], ncols: int) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form over Q of sparse integer rows ``{column: int}``.

    Returns ``(rows, pivots)``: one primitive row per pivot column, in
    order, each zero at every other pivot.  Dividing each row by its entry
    at its pivot gives the nonzero rows of the unique reduced form.
    """
    return _reduced([_primitive_q(row) for row in rows if row], _q_eliminate)


def rref_qi(rows: list[ZiRow], ncols: int) -> tuple[list[ZiRow], list[int]]:
    """Reduced row echelon form over Q(i) of sparse Z[i] rows; as `rref_q`."""
    return _reduced([_primitive_qi(row) for row in rows if row], _zi_eliminate)


def null_space(rows: list[dict], ncols: int, field: str) -> list[tuple[dict, int]]:
    """The reduced basis of {x : row . x = 0 for each row}, as exact vectors.

    ``rows`` are sparse integer rows ``{column: int}`` over "Q" or Z[i] rows
    over "Qi", columns below ``ncols``.  Row j of the matrix reduced,
    [M^T | I], is column j of ``rows`` followed by the j-th unit vector; its
    reduced rows that vanish on the first part are the null space's reduced
    row echelon basis, each times a scale.  Each comes back divided by its
    pivot entry, as an exact vector ``(row, den)`` in lowest terms
    (`q_exact`, `zi_exact`), in pivot order.
    """
    m = len(rows)
    one, rref, exact = (1, rref_q, q_exact) if field == "Q" else ((1, 0), rref_qi, zi_exact)
    aug = [{m + j: one} for j in range(ncols)]
    for i, row in enumerate(rows):
        for j, e in row.items():
            aug[j][i] = e
    red, pivots = rref(aug, m + ncols)
    return [
        exact({j - m: e for j, e in row.items()}, p - m)
        for row, p in zip(red, pivots)
        if p >= m
    ]


def q_exact(row: dict, lead: int) -> tuple[dict, int]:
    """``row`` divided by its entry at ``lead``, as ``(row, den)`` in lowest terms."""
    g = gcd(*row.values()) * (1 if row[lead] > 0 else -1)
    return {j: x // g for j, x in row.items()}, row[lead] // g


def _echelon(pool: list[dict], eliminate) -> list[tuple[int, dict]]:
    """Echelon form of nonzero rows, as ``(pivot column, row)`` pairs in column order.

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


def _reduced(pool: list[dict], eliminate) -> tuple[list[dict], list[int]]:
    """`_echelon`, then each pivot column cleared from the rows above it."""
    pairs = _echelon(pool, eliminate)
    rows = [row for _, row in pairs]
    # Last pivot first: rows[k] is already zero at every later pivot, so
    # subtracting it keeps the rows above zero there too.
    for k in range(len(pairs) - 1, 0, -1):
        col, pivot = pairs[k][0], rows[k]
        for i in range(k):
            if col in rows[i]:
                rows[i] = eliminate(rows[i], pivot, col)
    return rows, [col for col, _ in pairs]


def _q_eliminate(row: dict, pivot: dict, col: int) -> dict:
    """a * row - b * pivot, zero in column ``col``, with its content divided out.

    a / b = pivot[col] / row[col] in lowest terms.  The zero row comes back
    empty.
    """
    p, f = pivot[col], row[col]
    g = gcd(p, f)
    a, b = p // g, f // g
    out = {j: a * x for j, x in row.items()}
    for j, y in pivot.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    return _primitive_q(out) if out else out


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


def zi_rows(vectors) -> tuple[list[ZiRow], int]:
    """Scalar vectors as Z[i] rows over one common denominator.

    Returns ``(rows, den)`` with ``vec[j] == (re + im*i) / den`` for each
    entry ``(re, im) = row[j]``; `zi_decode` inverts it.  Entries may be
    `Gaussian`, `Rational` or int.
    """
    flat, den = zi_pairs(_scalars([x for vec in vectors for x in vec]))
    rows = []
    start = 0
    for vec in vectors:
        rows.append(_zi_sparse(flat[start : start + len(vec)]))
        start += len(vec)
    return rows, den


def zi_row(vec) -> ZiRow:
    """One scalar vector as a Z[i] row: the vector times its common denominator."""
    return _zi_sparse(zi_pairs(_scalars(vec))[0])


def _scalars(vec):
    """``vec`` with its int entries as `Rational` scalars."""
    if int not in map(type, vec):
        return vec
    return [Rational(x) if type(x) is int else x for x in vec]


def _zi_sparse(pairs) -> ZiRow:
    return {j: p for j, p in enumerate(pairs) if p[0] or p[1]}


def zi_decode(row: ZiRow, den: int, ncols: int) -> tuple[Gaussian, ...]:
    """The vector ``row / den`` as a tuple of ``ncols`` `Gaussian` scalars."""
    out = [_GAUSSIAN_ZERO] * ncols
    for j, (a, b) in row.items():
        out[j] = Gaussian(Rational(a, den) if a else Q0, Rational(b, den) if b else Q0)
    return tuple(out)


def zi_conj(row: ZiRow) -> ZiRow:
    """The entrywise complex conjugate of a row."""
    return {j: (a, -b) for j, (a, b) in row.items()}


def zi_combine(*terms) -> ZiRow:
    """The sum of ``c * row`` over the ``(c, row)`` terms, ``c = (re, im)`` in Z[i]."""
    out: dict[int, tuple[int, int]] = {}
    for (cr, ci), row in terms:
        for j, (x, y) in row.items():
            a, b = out.get(j, (0, 0))
            out[j] = (a + cr * x - ci * y, b + cr * y + ci * x)
    return {j: e for j, e in out.items() if e[0] or e[1]}


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
    """The exact vector ``row / den`` in lowest terms, for a nonzero ``den``."""
    g = gcd(den, *chain.from_iterable(row.values()))
    if den < 0:
        g = -g
    return {j: (x // g, y // g) for j, (x, y) in row.items()}, den // g


def zi_common(vectors) -> tuple[list[ZiRow], int]:
    """Exact vectors ``(row, den)`` as Z[i] rows over their least common denominator."""
    den = lcm(*(d for _, d in vectors))
    return [zi_combine(((den // d, 0), row)) for row, d in vectors], den


def _zi_eliminate(row: ZiRow, pivot: ZiRow, col: int) -> ZiRow:
    """a * row - b * pivot, zero in column ``col``, with its content divided out.

    a / b = pivot[col] / row[col], both Gaussian integers divided by the
    integer gcd of their four parts.  The zero row comes back empty.
    """
    pr, pi = pivot[col]
    fr, fi = row[col]
    g = gcd(pr, pi, fr, fi)
    ar, ai, br, bi = pr // g, pi // g, fr // g, fi // g
    out = {j: (ar * x - ai * y, ar * y + ai * x) for j, (x, y) in row.items()}
    for j, (u, v) in pivot.items():
        x, y = out.get(j, (0, 0))
        x -= br * u - bi * v
        y -= br * v + bi * u
        if x or y:
            out[j] = (x, y)
        else:
            del out[j]
    return _primitive_qi(out) if out else out


def zi_reduce(row: ZiRow, echelon: list[tuple[int, ZiRow]]) -> ZiRow:
    """``row`` reduced against echelon rows; empty exactly when it lies in their span.

    ``echelon`` holds ``(lead, row)`` pairs, each row nonzero at its lead and
    zero at the leads of the rows before it, as `zi_insert` builds them.  The
    result is zero at every lead.
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


def zi_insert(echelon: list[tuple[int, ZiRow]], row: ZiRow) -> bool:
    """Append ``row``, reduced, to ``echelon`` if nonzero; True when the span grew."""
    row = zi_reduce(row, echelon)
    if not row:
        return False
    echelon.append((min(row), _primitive_qi(row)))
    return True
