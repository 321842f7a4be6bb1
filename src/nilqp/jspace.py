"""The J-space construction of the bigrading search (stage `jspace`).

When dim C^1 >= 2, a complex structure J on V = R / Z compatible with
every bracket form (Salamon, J. Pure Appl. Algebra 157 (2001) 311-333)
gives U = {x - iJx}.  The compatible operators are a null space
(`_compatible_complex_structures`), and a candidate X in it with X^2 =
mu I, -mu a square, gives J = X / sqrt(-mu) (`_jspace_u`).

The construction keeps its solution space as integer matrices over one
denominator and its candidates as integer coefficient tuples
(`_ProductTable`), so "X^2 = mu I" is a zero test on integer residuals.
Its number theory (lowest terms, exact square roots, rational roots,
Legendre's conic solver) is `nilqp._arith`, on plain ints.  U is
returned as exact vectors ``(row, den)`` on the kernel's Z[i] rows.
"""

from __future__ import annotations

from math import lcm

from . import kernel, twostep
from ._arith import isqrt_exact, lowest_terms, rational_roots, solve_ternary


def _compatible_complex_structures(frame: twostep._TwoStepFrame):
    """Basis of {A : beta_t(Ax, y) + beta_t(x, Ay) = 0 for every component}.

    A solution with A^2 = -I is exactly a complex structure J whose graph
    U = {x - iJx} commutes for every bracket component; mu in A^2 = mu I is
    invariant under basis change, so rational solutions transport.  Returns
    ``(basis, den)``: the null space's exact vectors over one denominator,
    A_a = basis[a] / den with each basis[a] the integer matrix of their
    real parts, as sparse rows ``{column: int}`` for `_ProductTable`.
    The search calls it when dim C^1 >= 2: every form is then nonzero and
    gives at least one equation.
    """
    v = frame.v
    rows = []
    # Unknowns: A[r][s] flattened; equations: (A^T M + M A)[p][q] = 0, p < q.
    # (A^T M)[p][q] = sum_r A[r][p] M[r][q] and (M A)[p][q] = sum_s M[p][s]
    # A[s][q]; as p < q the two sums share no unknown.
    for m in frame.forms:
        for p in range(v):
            for q in range(p + 1, v):
                row = {r * v + p: (m[r][q], 0) for r in range(v) if m[r][q]}
                row.update((s * v + q, (m[p][s], 0)) for s in range(v) if m[p][s])
                if row:
                    rows.append(row)
    null = kernel.null_space(rows, v * v, "Q")
    den = lcm(*(d for _, d in null))
    basis = []
    for vec, d in null:
        mat: list[dict[int, int]] = [{} for _ in range(v)]
        for j, (x, _) in vec.items():
            mat[j // v][j % v] = x * (den // d)
        basis.append(mat)
    return basis, den


class _ProductTable:
    """Products of the basis A_a = M_a / D of the compatible-structure space.

    A J-space candidate is a combination X = sum c_a A_a, handled as its
    integer coefficient tuple c; the A_a are independent, so X is zero only
    when c is.  Only its ray matters: a positive multiple of X gives the
    same J = X / sqrt(-mu), while -X gives -J and so conj(U).  The square
    and the anticommutators of combinations are sums of the integer
    products P_ab = M_aM_b + M_bM_a (a < b) and P_aa = M_a^2, over D^2,
    each formed once, when first needed.  A product P is kept as
    ``(mu, residual)``: mu is its (0, 0) entry and residual the nonzero
    entries of P - mu I as ``{r * v + s: entry}``.  A combination of
    products is a multiple of I exactly when the same combination of
    residuals is zero.
    """

    def __init__(self, basis, den: int):
        self.basis = basis
        self.den = den
        self.k = len(basis)
        self.units = [tuple(int(b == a) for b in range(self.k)) for a in range(self.k)]
        self._products: dict[tuple[int, int], tuple] = {}

    def product(self, a: int, b: int) -> tuple:
        """``(mu, residual)`` of P_ab, for a <= b."""
        got = self._products.get((a, b))
        if got is None:
            x, y = self.basis[a], self.basis[b]
            v = len(x)
            m: list[dict[int, int]] = [{} for _ in range(v)]
            for p, q in ((x, x),) if a == b else ((x, y), (y, x)):
                for out, row in zip(m, p):
                    for t, e in row.items():
                        for s, f in q[t].items():
                            out[s] = out.get(s, 0) + e * f
            mu = m[0].get(0, 0)
            for r, row in enumerate(m):
                row[r] = row.get(r, 0) - mu
            residual = {r * v + s: e for r, row in enumerate(m) for s, e in row.items() if e}
            got = self._products[a, b] = (mu, residual)
        return got

    def anticommutator(self, c, d) -> int | None:
        """beta with XY + YX = (beta / D^2) I for X = sum c_a A_a, Y = sum d_a A_a, or None."""
        support = [a for a in range(self.k) if c[a] or d[a]]
        beta = 0
        total: dict[int, int] = {}
        for i, a in enumerate(support):
            for b in support[i:]:
                coef = 2 * c[a] * d[a] if a == b else c[a] * d[b] + c[b] * d[a]
                if coef:
                    mu, residual = self.product(a, b)
                    beta += coef * mu
                    for j, x in residual.items():
                        total[j] = total.get(j, 0) + coef * x
        return None if any(total.values()) else beta

    def square(self, c) -> int | None:
        """mu with X^2 = (mu / D^2) I for X = sum c_a A_a, or None."""
        beta = self.anticommutator(c, c)
        # The anticommutator of X with itself has even coefficients.
        return None if beta is None else beta // 2

    def matrix(self, c) -> list[dict[int, int]]:
        """The sparse rows of the integer matrix sum c_a M_a, which is D times sum c_a A_a."""
        out: list[dict[int, int]] = [{} for _ in self.basis[0]]
        for x, m in zip(c, self.basis):
            if x:
                for acc, row in zip(out, m):
                    for s, e in row.items():
                        acc[s] = acc.get(s, 0) + x * e
        return out


def _rays_with_square_condition(table: _ProductTable, a: int, b: int):
    """Rational rays x*A_a + y*A_b with a scalar square, as coefficient tuples.

    Each residual entry of (x*A_a + y*A_b)^2 is a homogeneous binary
    quadratic whose coefficients are that entry of P_aa, P_ab and P_bb; the
    rational roots of the first nontrivial one are checked against the rest.
    """
    ea, eb = table.units[a], table.units[b]
    residuals = [table.product(*pair)[1] for pair in ((a, a), (a, b), (b, b))]
    quads = [
        q
        for j in sorted(set().union(*residuals))
        if any(q := tuple(res.get(j, 0) for res in residuals))
    ]
    if not quads:
        # every combination already works; try the two axes
        return [ea, eb]
    qa, qb, qc = quads[0]
    if qa:
        # the roots t = x/y of qa t^2 + qb t + qc, each as the ray (t, 1) times its denominator
        rays = rational_roots([qc, qb, qa])
    else:
        # (1 : 0), and (0 : 1) when qc = 0.  The root (-qc : qb) of
        # qb x + qc y is not tried when qc != 0.
        rays = [(1, 0)] if qc else [(1, 0), (0, 1)]
    return [
        tuple(x * p + y * q for p, q in zip(ea, eb))
        for x, y in rays
        if all(not (ca * x * x + cb * x * y + cc * y * y) for ca, cb, cc in quads)
    ]


def _nilpotent_via_conic(table: _ProductTable):
    """Coefficients of a nonzero nilpotent in a 3-dim quaternion-like space.

    The squares define a ternary quadratic form on the space; a rational
    isotropic vector (Legendre reduction in nilqp._arith) is a nilpotent.
    The form is kept as the integer Gram matrix of the anticommutators, 2D^2
    times the symmetric form (XY + YX) / 2.  ``table`` spans a 3-dim space.
    """
    units = table.units
    gram = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            beta = table.anticommutator(units[i], units[j])
            if beta is None:
                return None
            gram[i][j] = gram[j][i] = beta

    def form(x, y):
        return sum(a * g * b for a, row in zip(x, gram) if a for g, b in zip(row, y) if b)

    # Congruence diagonalization over Q, tracking the combination vectors as
    # integer tuples over positive denominators ``(nums, den)``.
    ortho = []
    rest = [(u, 1) for u in units]
    for _ in range(3):
        pivot = next((idx for idx, (w, _) in enumerate(rest) if form(w, w)), None)
        if pivot is None:
            # every remaining vector is isotropic
            for w, _ in rest:
                if any(w):
                    return w
            return None
        w, wd = rest.pop(pivot)
        ortho.append((w, wd))
        d = form(w, w)
        # x - (B(x, w) / B(w, w)) w, whose denominator is xd * d
        reduced = (
            lowest_terms(*(d * a - form(x, w) * b for a, b in zip(x, w)), xd * d)
            for x, xd in rest
        )
        rest = [(t[:-1], t[-1]) for t in reduced]
    # The diagonal B(w, w) of the rational vectors, times 2D^2 lcm^2.
    top = lcm(*(wd for _, wd in ortho))
    ds = [form(w, w) * (top // wd) ** 2 for w, wd in ortho]
    for idx, d in enumerate(ds):
        if not d:
            return ortho[idx][0]
    sol = solve_ternary(ds[0], ds[1], ds[2])
    if sol is None:
        return None
    coords = tuple(
        sum(sol[t] * w[i] * (top // wd) for t, (w, wd) in enumerate(ortho))
        for i in range(3)
    )
    return coords if any(coords) else None


def _split_structure_candidates(table: _ProductTable) -> list[tuple]:
    """Complex structures via nilpotents of a quaternion-like solution space.

    When every A in the space squares to a scalar, a nonzero nilpotent N and
    any B with NB + BN = beta*I (beta != 0), B^2 = b*I combine to
    J = ((-1 - b)/beta) N + B, which squares to -I exactly.  Candidates are
    coefficient tuples on the table's basis.  A nilpotent is kept up to
    any nonzero factor, which (-1 - b)/beta divides out again.
    """
    units = table.units
    mus = [table.square(e) for e in units]
    nilpotents = [e for e, mu in zip(units, mus) if mu == 0]
    if not nilpotents and table.k == 3:
        conic = _nilpotent_via_conic(table)
        if conic is not None and table.square(conic) == 0:
            nilpotents.append(conic)
    # Rational nilpotent rays inside pairs: mu(A_i + t A_j) = 0.
    for i in range(table.k):
        for j in range(table.k):
            if i == j or mus[i] is None or mus[j] is None or not mus[j]:
                continue
            beta = table.anticommutator(units[i], units[j])
            if beta is None:
                continue
            # mu(A_i) + t*beta + t^2 mu(A_j) = 0, each over D^2
            mi, mj = mus[i], mus[j]
            root = isqrt_exact(beta * beta - 4 * mj * mi)
            if root is None:
                continue
            for sign in (1, -1):
                # A_i + t A_j for t = (-beta + sign*root) / (2 mj), times 2 mj
                t = -beta + sign * root
                nilpotents.append(tuple(2 * mj * x + t * y for x, y in zip(units[i], units[j])))
    out = []
    d2 = table.den * table.den
    for n in nilpotents[:8]:
        for e, mu_b in zip(units, mus):
            if mu_b is None:
                continue
            beta = table.anticommutator(n, e)
            if not beta:
                continue
            # ((-1 - b)/beta) N + B with b = mu_b / D^2 and beta over D^2,
            # times |beta|
            x = -(d2 + mu_b)
            sign = 1 if beta > 0 else -1
            out.append(tuple(sign * (x * p + beta * q) for p, q in zip(n, e)))
    return out


def _jspace_candidates(table: _ProductTable):
    """Coefficient tuples of the J-space candidates, in the order they are tried.

    The basis itself, the split candidates, then for each pair of basis
    elements four fixed combinations and the rays with a scalar square.
    """
    units = table.units
    yield from units
    yield from _split_structure_candidates(table)
    for a in range(table.k):
        for b in range(a + 1, table.k):
            for c in (1, -1, 2, -2):
                yield tuple(x + c * y for x, y in zip(units[a], units[b]))
            yield from _rays_with_square_condition(table, a, b)


def _jspace_u(frame: twostep._TwoStepFrame):
    """U from a bracket-compatible complex structure (any commutator size).

    A candidate X = N / D with X^2 = (mu / D^2) I and -mu = r^2 a square
    gives J = X / sqrt(-mu) = N / r, and U is spanned by the Z[i] rows
    r (x - iJx) = r x - i N x for unit vectors x, returned as the exact
    vectors ``(row, r)``.  ``frame.v`` = 2h > 0, as the search calls it.
    As J^2 = -I and J is compatible with every bracket form, U is J's +i
    eigenspace: of dimension h, isotropic for every form and transverse to
    its conjugate, so the first such candidate gives U.
    """
    v, h = frame.v, frame.h
    basis, den = _compatible_complex_structures(frame)
    if not basis:
        return None
    table = _ProductTable(basis, den)
    for coeffs in _jspace_candidates(table):
        mu = table.square(coeffs)
        if mu is None or mu >= 0:
            continue
        r = isqrt_exact(-mu)
        if r is None:
            continue
        n = table.matrix(coeffs)
        rows: list[kernel.ZiRow] = []
        echelon: list = []
        for x in range(v):
            row = {
                j: (r if j == x else 0, -nrow.get(x, 0))
                for j, nrow in enumerate(n)
                if j == x or nrow.get(x)
            }
            if kernel.zi_insert(echelon, row):
                rows.append(row)
            if len(rows) == h:
                break
        return [(row, r) for row in rows]
    return None
