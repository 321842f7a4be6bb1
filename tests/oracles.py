"""Independent brute-force oracles for the test suite.

Everything here is deliberately written against the standard library only
(fractions.Fraction, itertools) and shares no code with the package: a
separate elimination routine, a separate differential construction with
permutation-parity signs, and a separate Jacobi evaluator.  Golden values in
the tests were produced by these oracles.
"""

from fractions import Fraction
from itertools import combinations


def frac_rank(rows):
    """Gaussian elimination over Fraction (or complex Fractions as tuples)."""
    # Entries that already are Fractions are taken as they are: wrapping
    # each again cost most of the time of `oracle_betti`.
    m = [[x if type(x) is Fraction else Fraction(x) for x in r] for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(nrows):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def frac_rref(rows, ncols):
    """Reduced row echelon form over Fraction; returns (rows, pivots)."""
    m = [list(map(Fraction, r)) for r in rows]
    pivots = []
    rank = 0
    nrows = len(m)
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank][col]
        m[rank] = [x / lead for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return m, pivots


def perm_sign(seq):
    """Parity of the permutation sorting seq (distinct entries)."""
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def oracle_differential(brackets, n, k):
    """Matrix of d on degree-k dual monomials, built from first principles.

    brackets: {(i, j): {t: Fraction}} for i < j.  Convention:
    d x^t = - sum C_{ij}^t x^i ^ x^j, extended as an odd derivation.
    Returns a list of rows (length C(n, k+1)) over columns C(n, k).
    """
    src = list(combinations(range(n), k))
    dst = list(combinations(range(n), k + 1))
    dst_index = {mon: r for r, mon in enumerate(dst)}
    rows = [[Fraction(0)] * len(src) for _ in dst]
    for c, mon in enumerate(src):
        for pos, t in enumerate(mon):
            rest = mon[:pos] + mon[pos + 1 :]
            for (i, j), coeffs in brackets.items():
                coeff = coeffs.get(t)
                if not coeff:
                    continue
                if i in rest or j in rest:
                    continue
                seq = (i, j) + rest
                target = tuple(sorted(seq))
                sign = perm_sign(seq) * ((-1) ** pos)
                rows[dst_index[target]][c] += -Fraction(coeff) * sign
    return rows


def oracle_betti(brackets, n):
    """Betti numbers from oracle differentials and Fraction ranks."""
    from math import comb

    ranks = [frac_rank(oracle_differential(brackets, n, k)) for k in range(n + 1)]
    out = []
    for k in range(n + 1):
        prev = ranks[k - 1] if k else 0
        out.append(comb(n, k) - ranks[k] - prev)
    return out


def oracle_bracket(brackets, n, u, v):
    """Bilinear bracket of coordinate vectors over Fraction."""
    out = [Fraction(0)] * n
    for (i, j), coeffs in brackets.items():
        c = u[i] * v[j] - u[j] * v[i]
        if c:
            for t, w in coeffs.items():
                out[t] += c * Fraction(w)
    return out


def oracle_jacobi_residual(brackets, n, i, j, k):
    """[[Xi,Xj],Xk] + [[Xj,Xk],Xi] + [[Xk,Xi],Xj] over Fraction."""
    def basis(t):
        e = [Fraction(0)] * n
        e[t] = Fraction(1)
        return e

    def br(a, b):
        return oracle_bracket(brackets, n, a, b)

    r1 = br(br(basis(i), basis(j)), basis(k))
    r2 = br(br(basis(j), basis(k)), basis(i))
    r3 = br(br(basis(k), basis(i)), basis(j))
    return [a + b + c for a, b, c in zip(r1, r2, r3)]


def oracle_centralizer_dim(brackets, n):
    """dim{v : [v, X_i] = 0 for all i} by stacking ad-matrices."""
    rows = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        cols = []
        for j in range(n):
            ej = [Fraction(0)] * n
            ej[j] = Fraction(1)
            cols.append(oracle_bracket(brackets, n, ej, e))
        for coord in range(n):
            rows.append([cols[j][coord] for j in range(n)])
    return n - frac_rank(rows)


def oracle_abelian_factor_dim(brackets, n):
    """dim Z - dim(Z n C^1) = dim(Z + C^1) - dim C^1, the dimension of the abelian factor.

    C^1 is spanned by the brackets of basis vectors; Z is the null space of
    the stacked ad matrices, read off their Fraction RREF.
    """
    c1 = [[Fraction(coeffs.get(t, 0)) for t in range(n)] for coeffs in brackets.values()]
    e = [[Fraction(int(s == t)) for s in range(n)] for t in range(n)]
    stacked = []
    for i in range(n):
        cols = [oracle_bracket(brackets, n, e[j], e[i]) for j in range(n)]
        stacked.extend([cols[j][k] for j in range(n)] for k in range(n))
    red, pivots = frac_rref(stacked, n)
    z = []
    for f in (j for j in range(n) if j not in pivots):
        vec = list(e[f])
        for row, p in zip(red, pivots):
            vec[p] = -row[f]
        z.append(vec)
    return frac_rank(c1 + z) - frac_rank(c1)


# -- Q(i) as pairs (re, im) of Fractions ----------------------------------------


def _c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _c_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _c_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def frac_rref_qi(rows, ncols):
    """Reduced row echelon form over Q(i), entries as (re, im) Fraction pairs.

    Returns (rows, pivots), as `frac_rref`.
    """
    zero = (Fraction(0), Fraction(0))
    m = [[(Fraction(x), Fraction(y)) for x, y in r] for r in rows]
    pivots = []
    rank = 0
    nrows = len(m)
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col] != zero), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank][col]
        m[rank] = [_c_div(x, lead) for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col] != zero:
                f = m[i][col]
                m[i] = [_c_sub(a, _c_mul(f, b)) for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return m, pivots


def frac_inverse_qi(rows):
    """Inverse of a square matrix of pairs by Gauss-Jordan elimination, or None."""
    n = len(rows)
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    aug = [list(r) + [one if c == i else zero for c in range(n)] for i, r in enumerate(rows)]
    red, pivots = frac_rref_qi(aug, 2 * n)
    if pivots != list(range(n)):
        return None
    return [r[n:] for r in red]


def _c_matmul(a, b):
    zero = (Fraction(0), Fraction(0))
    out = []
    for row in a:
        acc = [zero] * len(b[0])
        for x, brow in zip(row, b):
            if x != zero:
                for c, y in enumerate(brow):
                    p = _c_mul(x, y)
                    acc[c] = (acc[c][0] + p[0], acc[c][1] + p[1])
        out.append(acc)
    return out


def oracle_basis_change(brackets, n, t, real=None):
    """Constants and real structure in the basis e_i = sum_j t[i][j] X_j, over Q(i).

    ``brackets`` is {(i, j): {k: (re, im)}} for i < j, ``t`` and ``real``
    (the real structure S, or None) are rows of (re, im) pairs, all parts
    Fractions.  Returns ``(constants, S')``: the nonzero new constants as
    {(i, j): {k: (re, im)}}, and S' = (t^T)^-1 S conj(t)^T with S the
    identity when ``real`` is None.
    """
    zero = (Fraction(0), Fraction(0))
    inv = frac_inverse_qi(t)
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            # [e_i, e_j] in old coordinates w; new coordinates are w t^-1.
            w = [zero] * n
            for (a, b), coeffs in brackets.items():
                c = _c_sub(_c_mul(t[i][a], t[j][b]), _c_mul(t[i][b], t[j][a]))
                for k, x in coeffs.items():
                    p = _c_mul(c, x)
                    w[k] = (w[k][0] + p[0], w[k][1] + p[1])
            x = _c_matmul([w], inv)[0]
            coeffs = {k: y for k, y in enumerate(x) if y != zero}
            if coeffs:
                out[(i, j)] = coeffs
    inv_t = [list(col) for col in zip(*inv)]
    conj_t = [[(y[0], -y[1]) for y in col] for col in zip(*t)]
    left = inv_t if real is None else _c_matmul(inv_t, real)
    return out, _c_matmul(left, conj_t)
