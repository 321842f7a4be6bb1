"""The two-step structure of a rational algebra R of class <= 2.

For such an R the commutator ideal C^1 = [R, R] lies in the center Z, so
the bracket is read on the quotient V = R / Z as one alternating form on
V per basis vector of C^1 (`_TwoStepFrame`), read once, as integers over
one denominator, off `liealg.structure_table`.  This is the structure
that classifies two-step algebras (Gauger, Trans. AMS 179 (1973)
293-329) and that every construction of the bigrading search reads.
Besides the forms, this module owns:

* the Darboux pairs of the one form when C^1 is a line (`_darboux_pairs`),
  by symplectic reduction on exact vectors;
* the pencil of the two forms when dim C^1 = 2 (`_pencil_structure`): the
  kernels of its degenerate members, located as the rational roots of the
  Pfaffian, and the pencil operator W = M_g^{-1} M_o of an invertible
  member M_g.

Vectors of V are the kernel's exact vectors ``(row, den)``: Z[i] rows,
real here, in lowest terms (`kernel.zi_lowest`), so that equal vectors
are equal pairs; a group of vectors is a list of them.  Nothing here
makes a scalar.
"""

from __future__ import annotations

from functools import cached_property

from . import kernel
from ._arith import rational_roots
from .liealg import LieAlgebra, _identity, center, commutator_ideal, structure_table


class _TwoStepFrame:
    """Quotient V = L / Z of a rational 2-step algebra and its bracket forms.

    V has the coordinates of the columns f_0 < f_1 < ... that are not pivots
    of the center's canonical basis, listed in ``free``: a vector of V lifts
    to L with its coordinate a on column ``free[a]``.
    The bracket of two lifts lies in C^1 = [L, L], and its coordinate on the
    t-th canonical basis row of C^1 is its entry at that row's pivot column,
    since the other rows vanish there.  So the constant of [X_{f_a}, X_{f_b}]
    at the t-th pivot is the t-th alternating form of the bracket on V.  The
    forms are read once, as integers over one denominator, off the integer
    table of `structure_table`: ``forms[t][a][b] / den`` is that constant.
    ``form_rows`` holds the same integers as Z[i] rows ``{b: (x, 0)}``, on
    which the search's constructions work: the t-th form pairs x with u as
    the dot product of x and the row F_t u = ``kernel.zi_matvec(form_rows[t],
    u)`` (`commutant_rows`), times ``den``.

    ``R`` is over Q with `Rational` constants, as `bigrading._realified`
    returns it.  The frame also holds h = v / 2 and the pencil
    (`_pencil_structure`), computed when first read.
    """

    def __init__(self, R: LieAlgebra):
        self.n = R.dim
        self.z = center(R)
        pivots = {min(row) for row, _ in self.z.rows}
        self.free = [j for j in range(self.n) if j not in pivots]
        self.v = len(self.free)
        self.h = self.v // 2
        self.c1 = commutator_ideal(R)
        slot = {f: a for a, f in enumerate(self.free)}
        coord = {min(row): t for t, (row, _) in enumerate(self.c1.rows)}
        table = structure_table(R)
        self.den = table.den
        self.forms = [[[0] * self.v for _ in range(self.v)] for _ in coord]
        for (i, j), row in table.rows.items():
            if i in slot and j in slot:
                a, b = slot[i], slot[j]
                for k, (x, _) in row:
                    if k in coord:
                        self.forms[coord[k]][a][b] = x
                        self.forms[coord[k]][b][a] = -x
        self.form_rows = [[kernel.zi_int_row(row) for row in form] for form in self.forms]

    @cached_property
    def pencil(self):
        return _pencil_structure(self)

    def regular(self) -> bool:
        """Whether C^1 has two forms and a member of their pencil is invertible."""
        return self.c1.dim == 2 and self.pencil[1] is not None

    def commutant_rows(self, rows) -> list[kernel.ZiRow]:
        """The nonzero rows F_t u for the Z[i] rows u in ``rows``.

        x commutes with every u exactly when x . F_t u = 0 for all of them.
        """
        return [
            fu for u in rows for form in self.form_rows if (fu := kernel.zi_matvec(form, u))
        ]


def _darboux_pairs(frame: _TwoStepFrame) -> list[tuple[kernel.ZiRow, int, kernel.ZiRow, int]]:
    """A Darboux basis of the one form of a frame whose C^1 is a line.

    ``frame.c1`` must be a line.  Its form is then nondegenerate on V =
    R / Z: a vector pairing to zero with all of V brackets to zero with all
    of R, so it lies in Z and is 0 in V.  So every vector left finds a
    partner, and the reduction always succeeds.

    Symplectic reduction of the one form, from the unit vectors of V, on
    exact vectors ``(row, den)`` whose Z[i] rows are real: each pair (x, y)
    has form value 1 on it and is split off the vectors left.  The pairs
    are returned as ``(x, xd, y, yd)``, for the exact vectors ``(x, xd)``
    and ``(y, yd)``: the form is 1 on x_a and y_a, and 0 on x_a and y_b for
    a != b, on any two x and on any two y.
    """
    form, fden = frame.forms[0], frame.den

    def pair(x, y):
        """The form on the rows x and y, times ``fden``."""
        return sum(a * form[j][k] * b for j, (a, _) in x.items() for k, (b, _) in y.items())

    remaining = list(_identity(frame.v))
    pairs = []
    while remaining:
        x, xd = remaining.pop(0)
        partner = next(idx for idx, (y, _) in enumerate(remaining) if pair(x, y))
        y, yd = remaining.pop(partner)
        # y divided by the form's value on x and y, pair(x, y) / (xd yd fden)
        y, yd = kernel.zi_lowest(kernel.zi_combine(((xd * fden, 0), y)), pair(x, y))
        reduced = []
        for vec, vd in remaining:
            a, b = pair(x, vec), pair(y, vec)
            if a or b:
                # vec - a' y + b' x for the form's values a' on (x, vec), b' on (y, vec)
                scale = xd * yd * fden
                vec, vd = kernel.zi_lowest(
                    kernel.zi_combine(((scale, 0), vec), ((-a, 0), y), ((b, 0), x)),
                    vd * scale,
                )
            reduced.append((vec, vd))
        remaining = reduced
        pairs.append((x, xd, y, yd))
    return pairs


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for a, x in enumerate(p):
        if not x:
            continue
        for b, y in enumerate(q):
            if y:
                out[a + b] += x * y
    return out


def _pfaffian_poly(m1, m2, v: int):
    """Integer coefficients of Pf(lambda*M1 + M2) by perfect-matching expansion."""

    def entry(i, j):
        return [m2[i][j], m1[i][j]]  # constant, then lambda coefficient

    def rec(indices):
        if not indices:
            return [1]
        out = [0]
        first = indices[0]
        for pos in range(1, len(indices)):
            partner = indices[pos]
            rest = indices[1:pos] + indices[pos + 1 :]
            term = _poly_mul(entry(first, partner), rec(rest))
            sign = 1 if pos % 2 == 1 else -1
            width = max(len(out), len(term))
            out = [
                (out[k] if k < len(out) else 0)
                + (term[k] if k < len(term) else 0) * sign
                for k in range(width)
            ]
        return out

    coeffs = rec(tuple(range(v)))
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _member(frame: _TwoStepFrame, kappa) -> list[kernel.ZiRow]:
    """The Z[i] rows of sum kappa_t F_t, for integer coefficients kappa of the forms."""
    terms = [((k, 0), rows) for k, rows in zip(kappa, frame.form_rows) if k]
    return [kernel.zi_combine(*((c, rows[r]) for c, rows in terms)) for r in range(frame.v)]


def _kernel_groups(frame: _TwoStepFrame, members):
    """The null spaces of the ``members`` (`_member`) that hold a new vector, in order.

    A null space counts when it is neither zero nor all of V, and it is new
    when some vector of its reduced basis is in no earlier one.
    """
    seen: list[tuple[kernel.ZiRow, int]] = []
    for kappa in members:
        null = kernel.null_space(_member(frame, kappa), frame.v, "Qi")
        if 0 < len(null) < frame.v and any(vec not in seen for vec in null):
            seen.extend(null)
            yield null


def _pencil_structure(frame: _TwoStepFrame):
    """Covariant pencil data for a 2-dim commutator: (seed groups, operator W).

    Seeds are kernel bases of the degenerate pencil members, located exactly
    as rational roots of the Pfaffian polynomial (for a singular pencil every
    member contributes).  The Pfaffian is expanded for even v <= 8, so its
    degree v/2 reaches 4, but `_arith.rational_roots` solves degree <= 3 only: when a
    quartic is left after factoring out lambda, its roots are missed and no
    degenerate member is seeded.  W = M_g^{-1} M_o for an invertible member
    M_g is self-adjoint for the member pairing, so W-cyclic subspaces
    commute; its orbit vectors make strong search candidates.  W is read off [M_g | M_o]
    by `kernel.zi_solve` and returned as ``(rows, d)``: the Z[i] rows of W
    times the integer d.  It is None for a singular pencil.

    The members lam*M1 + mu*M2 are tried in a fixed order.  Where the
    Pfaffian is expanded, Pf(lam*M1 + mu*M2) = sum pf[k] lam^k mu^(v/2-k)
    is nonzero exactly when the member is invertible, that is, when its
    solve succeeds; so only the first member with a nonzero value is
    solved, and it is the member that solving each in turn would find.
    For odd v or v > 8, ``pf`` is the placeholder [1] and every member is
    solved in turn until one succeeds.
    """
    v, h = frame.v, frame.h
    expanded = v % 2 == 0 and v <= 8
    pf = _pfaffian_poly(frame.forms[0], frame.forms[1], v) if expanded else [1]
    tries = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2))
    if all(not c for c in pf):
        return list(_kernel_groups(frame, tries)), None
    # Degenerate members: finite rational roots mu with Pf(mu*M1+M2)=0
    # read off the polynomial in the M1 direction, plus (1:0) itself when
    # Pf(M1), the coefficient of lam^h, is zero.  ``pf`` is trimmed to a
    # nonzero last coefficient (the placeholder [1] included), so that is
    # when its degree is below h.
    members = rational_roots(pf)
    if len(pf) - 1 < h:
        members.append((1, 0))
    groups = list(_kernel_groups(frame, members))
    # Invertible member for the pencil operator.
    for lam, mu in tries + ((1, -2),):
        if expanded and not sum(c * lam**k * mu ** (h - k) for k, c in enumerate(pf)):
            continue
        w = kernel.zi_solve(_member(frame, (lam, mu)), _member(frame, (mu, -lam)))
        if w is not None:
            return groups, w
    return groups, None
