"""Integer number theory on plain ints.

Ratios and rational vectors in lowest terms (`lowest_terms`), exact square
roots (`isqrt_exact`), the rational roots of an integer polynomial of
degree <= 3 (`rational_roots`), factorization, modular square roots, and
an exact solver for ternary quadratic equations a x^2 + b y^2 + c z^2 = 0
with integer coefficients (`solve_ternary`).

The solver implements Legendre reduction: normalize to squarefree pairwise
coprime coefficients, take a square root of -ab modulo the largest
coefficient, and descend via the composition identity

    (t^2 + ab) (a X^2 + b Y^2) = a (tX - bY)^2 + b (aX + tY)^2.

Everything is exact; a returned solution always satisfies the equation (the
caller is expected to verify anyway).  None means no rational solution was
found, which for solvable inputs does not happen.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def lowest_terms(*terms: int) -> tuple[int, ...]:
    """``terms[:-1] / terms[-1]`` in lowest terms with a positive denominator.

    The result has the layout of ``terms``: ``lowest_terms(num, den)`` is a
    ratio ``(num, den)``, and ``lowest_terms(*nums, den)`` a rational vector
    ``(*nums, den)``.  The denominator is nonzero.
    """
    g = gcd(*terms)
    if terms[-1] < 0:
        g = -g
    return tuple(t // g for t in terms)


def isqrt_exact(n: int) -> int | None:
    """The integer r >= 0 with r^2 = n, or None when n is not a square."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def _integer_roots_monic_cubic(b2: int, b1: int, b0: int) -> list[int]:
    """Integer roots of y^3 + b2 y^2 + b1 y + b0 by exact sign bisection, in increasing order."""

    def val(y: int) -> int:
        return ((y + b2) * y + b1) * y + b0

    # Stationary points of the cubic lie between integer brackets derived
    # from the derivative 3y^2 + 2b2 y + b1.
    disc = 4 * b2 * b2 - 12 * b1
    bound = 1 + max(abs(b2), abs(b1), abs(b0))
    cut_points = [-bound, bound]
    if disc > 0:
        r = isqrt(disc)
        for sign in (-1, 1):
            num = -2 * b2 + sign * r
            cut_points.append(num // 6)
            cut_points.append(num // 6 + 1)
    cuts = sorted(set(max(-bound, min(bound, c)) for c in cut_points))
    roots = []
    for lo, hi in zip(cuts, cuts[1:]):
        flo, fhi = val(lo), val(hi)
        if flo == 0:
            roots.append(lo)
        if fhi == 0:
            roots.append(hi)
        if (flo < 0 < fhi) or (fhi < 0 < flo):
            a, b = lo, hi
            fa = flo
            while b - a > 1:
                mid = (a + b) // 2
                fm = val(mid)
                if fm == 0:
                    roots.append(mid)
                    break
                if (fa < 0) == (fm < 0):
                    a, fa = mid, fm
                else:
                    b = mid
    return sorted(set(roots))


def rational_roots(coeffs) -> list[tuple[int, int]]:
    """All rational roots of an integer polynomial of degree <= 3, as `lowest_terms` ratios.

    ``coeffs`` lists the coefficients from the constant term up, the last
    one nonzero.  The roots come without repeats, in this order: 0 when
    the constant term is zero; then, for what is left after factoring out
    powers of the variable, with coefficients c_0, c_1, ..., the root of a
    linear factor, (-c_1 + r) / 2c_2 before (-c_1 - r) / 2c_2 for a
    quadratic (r the square root of its discriminant), and increasing
    y = c_3 lambda for a cubic.
    """
    roots: list[tuple[int, int]] = []
    while not coeffs[0]:
        coeffs = coeffs[1:]
        roots.append((0, 1))
    g = gcd(*coeffs)
    ints = [c // g for c in coeffs]
    if len(ints) == 2:
        roots.append(lowest_terms(-ints[0], ints[1]))
    elif len(ints) == 3:
        c0, c1, c2 = ints
        r = isqrt_exact(c1 * c1 - 4 * c2 * c0)
        if r is not None:
            roots += [lowest_terms(-c1 + r, 2 * c2), lowest_terms(-c1 - r, 2 * c2)]
    elif len(ints) == 4:
        c0, c1, c2, c3 = ints
        # y = c3 * lambda turns the cubic monic with integer coefficients.
        for y in _integer_roots_monic_cubic(c2, c1 * c3, c0 * c3 * c3):
            roots.append(lowest_terms(y, c3))
    return list(dict.fromkeys(roots))


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"factorization failed for {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| (1 maps to empty)."""
    n = abs(n)
    out: dict[int, int] = {}
    if n <= 1:
        return out
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """Square root of a modulo an odd prime p (or p = 2), else None."""
    a %= p
    if p == 2:
        return a
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == m:
                return None
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


def _sqrt_mod_squarefree(a: int, m: int, factors: dict[int, int]) -> int | None:
    """Square root of a modulo squarefree m via CRT over its prime factors."""
    if m == 1:
        return 0
    residue = 0
    modulus = 1
    for p in factors:
        rp = sqrt_mod_prime(a, p)
        if rp is None:
            return None
        # CRT combine
        residue += modulus * ((rp - residue) * pow(modulus, -1, p) % p)
        modulus *= p
    return residue % m


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = sf * s^2 with sf squarefree (sign carried by sf)."""
    if n == 0:
        return 0, 1
    sign = -1 if n < 0 else 1
    sf, s = 1, 1
    for p, e in factorize(n).items():
        if e % 2:
            sf *= p
        s *= p ** (e // 2)
    return sign * sf, s


def _solve_normalized(a: int, b: int, c: int, depth: int = 0):
    """Solve a x^2 + b y^2 + c z^2 = 0 for squarefree pairwise coprime
    coefficients with |a| <= |b| <= |c| and mixed signs; ints or None."""
    if depth > 200:
        return None
    if abs(c) == 1:  # |a| = |b| = 1 as well
        triple = (a, b, c)
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            if triple[i] == -triple[j]:
                sol = [0, 0, 0]
                sol[i] = 1
                sol[j] = 1
                return tuple(sol)
        return None
    mod = abs(c)
    factors = factorize(mod)
    if any(e > 1 for e in factors.values()):  # not squarefree; defensive
        return None
    t = _sqrt_mod_squarefree((-a * b) % mod, mod, factors)
    if t is None:
        return None
    if t > mod // 2:
        t = t - mod
    cc = (t * t + a * b) // c  # c | t^2 + ab by construction
    if cc == 0:
        # t^2 = -ab: a t^2 + b a^2 = a (t^2 + ab) = 0
        return (t, a, 0)
    sub = solve_ternary(a, b, cc, depth + 1)
    if sub is None:
        return None
    x1, y1, z1 = sub
    # (t^2 + ab)(a X^2 + b Y^2) = a(tX - bY)^2 + b(aX + tY)^2 with
    # a X^2 + b Y^2 = -cc Z^2 and t^2 + ab = c*cc.
    x = t * x1 - b * y1
    y = a * x1 + t * y1
    z = cc * z1
    if x == 0 and y == 0 and z == 0:
        return None
    return (x, y, z)


def solve_ternary(a: int, b: int, c: int, depth: int = 0):
    """Integer solution (x, y, z) != 0 of a x^2 + b y^2 + c z^2 = 0.

    Returns a primitive integer triple or None.  The result is verified
    against the equation before being returned.
    """
    if depth > 200:
        return None
    g = gcd(a, b, c)
    if g == 0:
        return None
    ints = [a // g, b // g, c // g]
    if 0 in ints:
        return tuple(int(i == ints.index(0)) for i in range(3))
    if all(v > 0 for v in ints) or all(v < 0 for v in ints):
        return None
    # Normalize: squarefree coefficients, pairwise coprime; num[i] / den[i]
    # converts a solution of the normalized equation to the original variables.
    work = list(ints)
    num, den = [1, 1, 1], [1, 1, 1]
    for i in range(3):
        work[i], s = _squarefree_split(work[i])
        den[i] *= s
    guard = 0
    while True:
        guard += 1
        if guard > 64:
            return None
        changed = False
        for (i, j, k) in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            g2 = gcd(work[i], work[j])
            if g2 > 1:
                # p | a, p | b: substitute z -> z/p and divide through by p:
                # (a/p) x^2 + (b/p) y^2 + (c p) z'^2 with z = p z'.
                work[i] //= g2
                work[j] //= g2
                work[k], s = _squarefree_split(work[k] * g2)
                num[k] *= g2
                den[k] *= s
                changed = True
        if not changed:
            break
    order = sorted(range(3), key=lambda i: abs(work[i]))
    sol = _solve_normalized(*(work[i] for i in order), depth=depth + 1)
    if sol is None:
        return None
    placed = [0, 0, 0]
    for pos, idx in enumerate(order):
        placed[idx] = sol[pos]
    top = lcm(*den)
    vals = [x * n * (top // d) for x, n, d in zip(placed, num, den)]
    g3 = gcd(*vals)
    if g3 == 0:
        return None
    out = tuple(v // g3 for v in vals)
    return None if sum(v * x * x for v, x in zip(ints, out)) else out
