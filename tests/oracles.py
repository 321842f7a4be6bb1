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


def oracle_form_gram(brackets, n, free, pivot, vectors):
    """The Gram matrix of the bracket form on V = L / Z on ``vectors``, over Fraction.

    A vector of V lifts to L with its coordinate a on column ``free[a]``,
    and the form of u and w is the entry at column ``pivot`` of [lift u,
    lift w]: for a two-step L whose C^1 is the line spanned by a vector
    with entry 1 there, that is the one bracket form.
    """
    lifts = []
    for u in vectors:
        lift = [Fraction(0)] * n
        for f, x in zip(free, u):
            lift[f] = Fraction(x)
        lifts.append(lift)
    return [[oracle_bracket(brackets, n, x, y)[pivot] for y in lifts] for x in lifts]


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


def kronecker_two_step(indices):
    """A two-step algebra whose pencil is a sum of singular Kronecker blocks.

    Each minimal index e in ``indices`` gives a block L_e with basis
    x_0..x_e, y_1..y_e, and the forms w1 = sum x_(j-1)^y_j and
    w2 = sum x_j^y_j; every block shares the center z1, z2, the last two
    basis vectors, and [a, b] = w1(a, b) z1 + w2(a, b) z2.  Returns
    ``(n, brackets)`` with ``brackets`` as {(i, j): {k: 1}} for i < j.
    """
    return pencil_two_step([("L", e) for e in indices])


def pencil_two_step(blocks):
    """A two-step algebra whose pencil of forms w1, w2 is a sum of Kronecker blocks.

    Each block takes the next basis vectors, and every block shares the
    center z1, z2, the last two basis vectors: [a, b] = w1(a, b) z1 +
    w2(a, b) z2.  The blocks are
    - ``("L", e)``: singular, on x_0..x_e, y_1..y_e, with w1 = sum
      x_(j-1)^y_j and w2 = sum x_j^y_j (L_0 is one vector in no bracket);
    - ``("J", k, lam)``: a Jordan pair J_k(lam) on x_1..x_k, y_1..y_k, with
      w2 = sum x_j^y_j and w1 = lam w2 + sum x_j^y_(j+1); lam None is
      J_k(inf), which swaps the roles of w1 and w2;
    - ``("C",)``: the block of t^2 + 1 on x_1..x_4, with w1 = x_1^x_2 +
      x_3^x_4 and w2 = x_1^x_3 - x_2^x_4.
    Returns ``(n, brackets)`` with ``brackets`` as {(i, j): {k: c}} for i < j.
    """
    terms = []  # (a, b, form, c): c x_a ^ x_b in w1 (form 0) or w2 (form 1)
    start = 0
    for kind, *args in blocks:
        if kind == "L":
            (e,) = args
            # x_j is start + j, y_j is start + e + j.
            for j in range(1, e + 1):
                y = start + e + j
                terms += [(start + j - 1, y, 0, 1), (start + j, y, 1, 1)]
            start += 2 * e + 1
        elif kind == "J":
            k, lam = args
            diagonal, shift = (0, 1) if lam is None else (1, 0)
            # x_j is start + j - 1, y_j is start + k + j - 1.
            for j in range(k):
                terms.append((start + j, start + k + j, diagonal, 1))
                if lam:
                    terms.append((start + j, start + k + j, 0, lam))
                if j + 1 < k:
                    terms.append((start + j, start + k + j + 1, shift, 1))
            start += 2 * k
        else:
            x1, x2, x3, x4 = range(start, start + 4)
            terms += [(x1, x2, 0, 1), (x3, x4, 0, 1), (x1, x3, 1, 1), (x2, x4, 1, -1)]
            start += 4
    n = start + 2
    brackets = {}
    for a, b, form, c in terms:
        brackets.setdefault((a, b), {})[n - 2 + form] = c
    return n, brackets


def vergne_q(n):
    """Vergne's filiform algebra Q_n, n even: [e_1, e_i] = e_(i+1) for 2 <= i <= n - 2,
    and [e_i, e_(n-i+1)] = (-1)^(i+1) e_n for 2 <= i <= n/2.

    Its C^1 = span(e_3..e_n) brackets into itself: [e_(n/2), e_(n/2+1)] is
    a multiple of e_n.  Returns ``(n, brackets)`` with ``brackets`` as
    {(i, j): {k: c}} for i < j, on the 0-based indices of e_1..e_n.
    """
    brackets = {(0, i - 1): {i: 1} for i in range(2, n - 1)}
    for i in range(2, n // 2 + 1):
        brackets[(i - 1, n - i)] = {n - 1: (-1) ** (i + 1)}
    return n, brackets


def pencil_discriminant(brackets, n):
    """b^2 - 4ac of the Pfaffian a l^2 + b l m + c m^2 of the pencil l w1 + m w2, on Fractions.

    For a two-step algebra whose brackets land on two basis vectors z1 < z2
    and whose other four basis vectors x_0..x_3 (in order) span a
    complement: w_t(x_a, x_b) is the z_t coefficient of [x_a, x_b], and Pf =
    w(x_0, x_1) w(x_2, x_3) - w(x_0, x_2) w(x_1, x_3) + w(x_0, x_3) w(x_1,
    x_2).  A change of basis of the complement scales Pf by its
    determinant and one of C^1 = span(z1, z2) substitutes (l, m), so the
    discriminant's class modulo nonzero squares is an isomorphism
    invariant: zero for a double root, negative for no real root, a
    positive square for two rational roots.
    """
    z = sorted({k for coeffs in brackets.values() for k in coeffs})
    x = [t for t in range(n) if t not in z]
    assert len(z) == 2 and len(x) == 4

    def form(a, b):
        coeffs = brackets.get((x[a], x[b]), {})
        return Fraction(coeffs.get(z[0], 0)), Fraction(coeffs.get(z[1], 0))

    quad = [Fraction(0)] * 3  # coefficients of l^2, l m, m^2
    for sign, (a, b), (c, d) in ((1, (0, 1), (2, 3)), (-1, (0, 2), (1, 3)), (1, (0, 3), (1, 2))):
        (p1, p2), (q1, q2) = form(a, b), form(c, d)
        quad[0] += sign * p1 * q1
        quad[1] += sign * (p1 * q2 + p2 * q1)
        quad[2] += sign * p2 * q2
    return quad[1] ** 2 - 4 * quad[0] * quad[2]
