"""The exact elimination kernel over Q and Q(i).

Elimination runs on plain integers rather than scalar objects.  Callers hand
it rows of `Rational`/`Gaussian` scalars and read results back through its
helpers; the one exception is the sparse integer row that `rank_q`/`rank_qi`
take, which ``cohomology`` assembles its differentials in directly.

`q_ints` and `zi_pairs` clear a vector of scalars of its denominators into
dense integers, or dense Z[i] pairs ``(re, im)``, over one least common
denominator.  ``liealg`` encodes its integer table of structure constants
(`liealg.structure_table`), the vectors it brackets and the matrices of a
change of basis with them.

* For `rref_q`/`rref_qi` an entry is ``(num, den)`` over the rationals and
  ``(re_num, re_den, im_num, im_den)`` over the Gaussian rationals, always in
  lowest terms with positive denominators (`encode`/`decode`).  They
  implement Gauss-Jordan reduction (the unique reduced row echelon form)
  with fraction arithmetic on those tuples.
* `rank_q`/`rank_qi` take sparse integer rows: ``{column: int}`` over Q and
  ``{column: (re, im)}`` (a Gaussian integer) over Q(i), with no zero
  entries.  `int_rows` clears each row of scalars of its denominators into
  that form; the Chevalley-Eilenberg differentials are assembled in it
  directly (``cohomology``).  They eliminate without fractions, keeping the
  rows sparse and dividing each by its content after every step, in the
  manner of fraction-free elimination (Bareiss, Math. Comp. 22 (1968)
  565-578).
* A Z[i] row is such a sparse row on its own: ``{column: (re, im)}`` with no
  zero entries, so the zero row is the empty, false dict.  `zi_rows`/
  `zi_row` encode scalar vectors (over one common denominator, which
  `zi_decode` divides out again), `zi_conj` and `zi_combine` form conjugates
  and Z[i]-combinations, and `zi_reduce`/`zi_insert` keep an echelon of
  primitive rows for ``exact.RowReducer``: a new row v is reduced by
  p * v - c * row (p the row's lead entry, c v's entry there), so only zero
  tests are ever asked of it and no division is needed.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalars import Q0, Gaussian, Rational

QPair = tuple[int, int]
QiQuad = tuple[int, int, int, int]
ZiRow = dict[int, tuple[int, int]]

Q_ZERO: QPair = (0, 1)
Q_ONE: QPair = (1, 1)
QI_ZERO: QiQuad = (0, 1, 0, 1)


def backend_name() -> str:
    """Name of the elimination kernel; there is only the pure-Python one."""
    return "pure"


# -- conversion from and to scalars ---------------------------------------------


def encode(rows, field: str) -> list[list]:
    """Rows of scalars as kernel rows.

    Over "Q" every entry must be a `Rational`.  Over "Qi" an entry may be a
    `Gaussian`, a `Rational` or an int; the last two are promoted.
    """
    if field == "Q":
        return [[(x.num, x.den) for x in row] for row in rows]
    return [
        [
            (x.re.num, x.re.den, x.im.num, x.im.den)
            if isinstance(x, Gaussian)
            else (x.num, x.den, 0, 1)
            if isinstance(x, Rational)
            else (x, 1, 0, 1)
            for x in row
        ]
        for row in rows
    ]


def decode(rows, field: str) -> list[list]:
    """Kernel rows back as rows of `Rational` ("Q") or `Gaussian` ("Qi")."""
    if field == "Q":
        return [[Rational(n, d) if n else Q0 for (n, d) in row] for row in rows]
    zero = Gaussian(0)
    return [
        [
            Gaussian(Rational(a, b) if a else Q0, Rational(c, d) if c else Q0)
            if a or c
            else zero
            for (a, b, c, d) in row
        ]
        for row in rows
    ]


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
    """Rows of scalars as sparse integer rows for `rank_q`/`rank_qi`.

    Each row is multiplied by the least common denominator of its entries,
    which changes neither its span nor which entries are nonzero: over "Q"
    it becomes ``{column: int}`` (every entry a `Rational`), over "Qi" a
    Z[i] row ``{column: (re, im)}`` (entries as `encode` takes them).
    """
    if field == "Qi":
        return [zi_row(row) for row in rows]
    out = []
    for row in rows:
        den = lcm(*{x.den for x in row})
        out.append({j: x.num * (den // x.den) for j, x in enumerate(row) if x.num})
    return out


# -- tuple arithmetic -----------------------------------------------------------


def _q_norm(n: int, d: int) -> QPair:
    if n == 0:
        return Q_ZERO
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    if g > 1:
        return (n // g, d // g)
    return (n, d)


def q_add(a: QPair, b: QPair) -> QPair:
    return _q_norm(a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def q_sub(a: QPair, b: QPair) -> QPair:
    return _q_norm(a[0] * b[1] - b[0] * a[1], a[1] * b[1])


def q_mul(a: QPair, b: QPair) -> QPair:
    return _q_norm(a[0] * b[0], a[1] * b[1])


def q_div(a: QPair, b: QPair) -> QPair:
    if b[0] == 0:
        raise ZeroDivisionError
    return _q_norm(a[0] * b[1], a[1] * b[0])


def qi_sub(a: QiQuad, b: QiQuad) -> QiQuad:
    return q_sub(a[:2], b[:2]) + q_sub(a[2:], b[2:])


def qi_mul(a: QiQuad, b: QiQuad) -> QiQuad:
    ar, ai, br, bi = a[:2], a[2:], b[:2], b[2:]
    return q_sub(q_mul(ar, br), q_mul(ai, bi)) + q_add(q_mul(ar, bi), q_mul(ai, br))


def qi_div(a: QiQuad, b: QiQuad) -> QiQuad:
    br, bi = b[:2], b[2:]
    n = q_add(q_mul(br, br), q_mul(bi, bi))
    if n[0] == 0:
        raise ZeroDivisionError
    ar, ai = a[:2], a[2:]
    return q_div(q_add(q_mul(ar, br), q_mul(ai, bi)), n) + q_div(
        q_sub(q_mul(ai, br), q_mul(ar, bi)), n
    )


# -- elimination ------------------------------------------------------------------


def _rref(rows, ncols, zero, one, sub, mul, div, is_zero):
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        src = None
        for i in range(r, nrows):
            if not is_zero(rows[i][col]):
                src = i
                break
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        row = rows[r]
        p = row[col]
        if p != one:
            row[col] = one
            for j in range(col + 1, ncols):
                if not is_zero(row[j]):
                    row[j] = div(row[j], p)
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][col]
            if is_zero(f):
                continue
            other = rows[i]
            other[col] = zero
            for j in range(col + 1, ncols):
                x = row[j]
                if not is_zero(x):
                    other[j] = sub(other[j], mul(f, x))
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _q_is_zero(a: QPair) -> bool:
    return a[0] == 0


def _qi_is_zero(a: QiQuad) -> bool:
    return a[0] == 0 and a[2] == 0


def rref_q(rows: list[list[QPair]], ncols: int):
    """Reduced row echelon form over Q; returns (rows, pivot columns)."""
    out, pivots = _rref(rows, ncols, Q_ZERO, Q_ONE, q_sub, q_mul, q_div, _q_is_zero)
    return out, pivots


def rank_q(rows: list[dict], ncols: int) -> int:
    """Rank over Q of sparse integer rows ``{column: int}``, columns below ``ncols``.

    Rows are divided by their content, never changed in place.  Eliminating
    column ``col`` replaces every other row r holding an entry there by
    a * r - b * pivot, with a / b = pivot[col] / r[col] in lowest terms, and
    divides out the new row's content.  The pivot is the shortest row with
    an entry in the column, to limit fill-in.
    """
    pool = [_primitive_q(row) for row in rows if row]
    rank = 0
    for col in range(ncols):
        pivot = _pivot(pool, col)
        if pivot is None:
            continue
        rank += 1
        p = pivot[col]
        rest = []
        for row in pool:
            if row is pivot:
                continue
            f = row.get(col)
            if f:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = {j: a * x for j, x in row.items()}
                for j, y in pivot.items():
                    x = row.get(j, 0) - b * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                if not row:
                    continue
                row = _primitive_q(row)
            rest.append(row)
        pool = rest
    return rank


def _pivot(pool: list[dict], col: int) -> dict | None:
    """The shortest row with an entry in column ``col``, or None."""
    return min((row for row in pool if col in row), key=len, default=None)


def _primitive_q(vec: dict) -> dict:
    g = gcd(*vec.values())
    return {j: x // g for j, x in vec.items()} if g > 1 else vec


def rref_qi(rows: list[list[QiQuad]], ncols: int):
    """Reduced row echelon form over Q(i); returns (rows, pivot columns)."""
    out, pivots = _rref(
        rows, ncols, QI_ZERO, (1, 1, 0, 1), qi_sub, qi_mul, qi_div, _qi_is_zero
    )
    return out, pivots


def rank_qi(rows: list[ZiRow], ncols: int) -> int:
    """Rank over Q(i) of sparse Z[i] rows ``{column: (re, im)}``.

    As `rank_q`, with Gaussian-integer entries; a row's content is the
    integer gcd of all its real and imaginary parts.
    """
    pool = [_primitive_qi(row) for row in rows if row]
    rank = 0
    for col in range(ncols):
        pivot = _pivot(pool, col)
        if pivot is None:
            continue
        rank += 1
        rest = []
        for row in pool:
            if row is pivot:
                continue
            if col in row:
                row = _zi_eliminate(row, pivot, col)
                if not row:
                    continue
            rest.append(row)
        pool = rest
    return rank


def _primitive_qi(vec: dict) -> dict:
    g = gcd(*(x for pair in vec.values() for x in pair))
    return {j: (x // g, y // g) for j, (x, y) in vec.items()} if g > 1 else vec


# -- sparse rows over Z[i] ----------------------------------------------------------


def zi_rows(vectors) -> tuple[list[ZiRow], int]:
    """Scalar vectors as Z[i] rows over one common denominator.

    Returns ``(rows, den)`` with ``vec[j] == (re + im*i) / den`` for each
    entry ``(re, im) = row[j]``; `zi_decode` inverts it.  Entries may be
    `Gaussian`, `Rational` or int.
    """
    quads = encode(vectors, "Qi")
    den = lcm(
        *{b for row in quads for _, b, _, _ in row},
        *{d for row in quads for _, _, _, d in row},
    )
    return [_zi_scaled(row, den) for row in quads], den


def zi_row(vec) -> ZiRow:
    """One scalar vector as a Z[i] row: the vector times its common denominator."""
    return zi_rows([vec])[0][0]


def _zi_scaled(row: list[QiQuad], den: int) -> ZiRow:
    return {
        j: (a * (den // b), c * (den // d))
        for j, (a, b, c, d) in enumerate(row)
        if a or c
    }


def zi_decode(row: ZiRow, den: int, ncols: int) -> tuple[Gaussian, ...]:
    """The vector ``row / den`` as a tuple of ``ncols`` `Gaussian` scalars."""
    zero = Gaussian(0)
    out = [zero] * ncols
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


def zi_insert(echelon: list[tuple[int, ZiRow]], row: ZiRow) -> bool:
    """Append ``row``, reduced, to ``echelon`` if nonzero; True when the span grew."""
    row = zi_reduce(row, echelon)
    if not row:
        return False
    echelon.append((min(row), _primitive_qi(row)))
    return True
