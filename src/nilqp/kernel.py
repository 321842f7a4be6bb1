"""The exact elimination kernel over Q and Q(i).

Elimination runs on plain integer tuples rather than scalar objects: an entry
is ``(num, den)`` over the rationals and ``(re_num, re_den, im_num, im_den)``
over the Gaussian rationals, always in lowest terms with positive
denominators.  This module is the only code that knows that layout.  Callers
hand it rows of ``Rational``/``Gaussian`` scalars through `encode` and read
results back through `decode`.

`rref_q`/`rref_qi` implement Gauss-Jordan reduction (the unique reduced row
echelon form) and `rank_q`/`rank_qi` a cheaper forward-only rank, all on
arbitrary-precision integers.  `qi_reduce`, `qi_lead` and `qi_monic` are the
steps of incremental reduction over Q(i) used by ``exact.RowReducer``.
"""

from __future__ import annotations

from math import gcd

from .scalars import Gaussian, Rational

QPair = tuple[int, int]
QiQuad = tuple[int, int, int, int]

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
        return [[Rational(n, d) for (n, d) in row] for row in rows]
    return [
        [Gaussian(Rational(a, b), Rational(c, d)) for (a, b, c, d) in row]
        for row in rows
    ]


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


def _rank(rows, ncols, sub, mul, div, is_zero):
    rows = [list(r) for r in rows]
    nrows = len(rows)
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
        for i in range(r + 1, nrows):
            f = rows[i][col]
            if is_zero(f):
                continue
            f = div(f, row[col])
            other = rows[i]
            for j in range(col + 1, ncols):
                x = row[j]
                if not is_zero(x):
                    other[j] = sub(other[j], mul(f, x))
        r += 1
        if r == nrows:
            break
    return r


def _q_is_zero(a: QPair) -> bool:
    return a[0] == 0


def _qi_is_zero(a: QiQuad) -> bool:
    return a[0] == 0 and a[2] == 0


def rref_q(rows: list[list[QPair]], ncols: int):
    """Reduced row echelon form over Q; returns (rows, pivot columns)."""
    out, pivots = _rref(rows, ncols, Q_ZERO, Q_ONE, q_sub, q_mul, q_div, _q_is_zero)
    return out, pivots


def rank_q(rows: list[list[QPair]], ncols: int) -> int:
    return _rank(rows, ncols, q_sub, q_mul, q_div, _q_is_zero)


def rref_qi(rows: list[list[QiQuad]], ncols: int):
    """Reduced row echelon form over Q(i); returns (rows, pivot columns)."""
    out, pivots = _rref(
        rows, ncols, QI_ZERO, (1, 1, 0, 1), qi_sub, qi_mul, qi_div, _qi_is_zero
    )
    return out, pivots


def rank_qi(rows: list[list[QiQuad]], ncols: int) -> int:
    return _rank(rows, ncols, qi_sub, qi_mul, qi_div, _qi_is_zero)


# -- incremental reduction over Q(i) ----------------------------------------------


def qi_reduce(v: list[QiQuad], rows, leads, ncols: int) -> list[QiQuad]:
    """Reduce ``v`` in place against monic echelon rows with the given leads."""
    for lead, row in zip(leads, rows):
        c = v[lead]
        if c[0] or c[2]:
            for j in range(lead, ncols):
                r = row[j]
                if r[0] or r[2]:
                    v[j] = qi_sub(v[j], qi_mul(c, r))
    return v


def qi_lead(v: list[QiQuad]) -> int | None:
    """Column of the first nonzero entry of ``v``, or None when ``v`` is zero."""
    return next((j for j, x in enumerate(v) if x[0] or x[2]), None)


def qi_monic(v: list[QiQuad], lead: int) -> list[QiQuad]:
    """``v`` divided by its entry in column ``lead``."""
    inv = v[lead]
    return [qi_div(x, inv) if (x[0] or x[2]) else x for x in v]
