"""Exterior-algebra complex of a Lie algebra and its cohomology.

The complex is (Lambda* g^*, d) on the dual of the algebra, with the
convention (d x^m)(X_i, X_j) = -x^m([X_i, X_j]) in degree one, extended as an
odd derivation with the Koszul sign rule.  Monomials x^{m_1} ^ ... ^ x^{m_k}
are indexed by lexicographically ordered k-subsets of {0..n-1}; all matrices
and representative cocycles use this order.

Each d_k is assembled once, sparsely, from bit masks of the monomials with
Koszul signs in closed form, out of the rows of a table of structure
constants (`liealg.StructureTable`): one row of pairs (k, C_ij^k) per
nonzero [X_i, X_j], i < j.  The assembly walks the terms of the d x^m and,
for each, only the monomials it meets, so its work follows the entries it
writes.  The entries of d_k are the constants times one common
denominator D of all of them, as (re, im) Gaussian integers over both
fields.  Scaling by D != 0 changes neither the rank nor which
entries are nonzero, so ranks are taken on these rows directly
(``kernel.rank`` over the table's field); d_0 and d_n are zero and are
not assembled.

One routine, `_graded_cohomology`, ranks the complex for both public
functions.  Each dual generator x^m carries a bidegree, monomials add them,
and a table that keeps bidegrees gives a d_k that maps the monomials of
bidegree b into those of bidegree b.  Its block b is the rows whose
destination monomial has bidegree b, and H^k_b has dimension dim
Lambda^k_b - rank(block b of d_k) - rank(block b of d_{k-1}).
`bigraded_cohomology` gives a generator of bidegree (p, q) (p, q <= 0) the
dual bidegree (-p, -q), in the basis of the grading's generators.  That
table is formed without inverting the basis (`_grading_table`): a
compatible grading brackets two generators into the component of the sum
of their bidegrees, so each bracket is solved in that component's
generators alone, on one echelon of [T | I] per target component T.
One pass, `_graded_solutions`, ranks the generators, tests the ones that
must be central (`_central_generators`) and forms and solves the brackets,
for this table and for `bigrading.verify_bigrading` alike.  On a real
table the bracket of two generators whose rows are the conjugates of a
pair already bracketed, up to sign, is that bracket's conjugate up to sign
(`liealg._pair_brackets`), and no pair is formed with a generator that
must be central and passes the test.  Only a bracket that hits an absent
bidegree or leaves its target sends `_grading_table` to
`liealg._moved_table`, whose inverse gives the constants that
GradingNotCompatible names.  Betti
numbers do not depend on the basis, so `betti_numbers` puts every generator
at (0, 0), one block, in a basis adapted to C^1 = [g, g]: unit vectors
completing C^1, then C^1's RREF basis (`_commutator_adapted_table`).  There
the n - dim C^1 dual generators of the unit vectors are closed, and each
d_k has fewer and shorter rows than in a basis where every d x^m is nonzero.

`betti_numbers` then ranks only the complex of the core: L = core + Q^k,
k = dim Z - dim(Z n C^1), so H(L) = H(core) (x) Lambda(Q^k) (Kunneth;
Chevalley and Eilenberg, Trans. AMS 63 (1948) 85-124) and the Poincare
polynomial is the core's times (1 + t)^k.  The split is read off the
adapted table (`_core_table`): the center's reduced rows with pivots among
the unit vectors are k central vectors outside C^1, and dropping those
pivot positions leaves the table of an ideal holding C^1 that meets them in
0.  Any subspace holding C^1 is an ideal, so this holds on every Lie
algebra, nilpotent or not.  k = 0 drops nothing.

On a unimodular algebra (tr ad X = 0 for every X, as on every nilpotent
one) half of those ranks are known (Koszul's Poincare duality): d_{n-1} =
0, so for a in Lambda^k, b in Lambda^{n-1-k} the form d(a ^ b) = da ^ b +
(-1)^k a ^ db is zero, and under the perfect pairing Lambda^j x Lambda^{n-j}
-> Lambda^n d_k is the transpose of d_{n-1-k} up to sign: rank d_k = rank
d_{n-1-k}.  The pairing matches bidegree b with T - b, T the sum of every
generator's bidegree, so block b of d_k and block T - b of d_{n-1-k} have
one rank.  `_graded_cohomology` tests tr ad = 0 exactly on the table
(`_unimodular`); when it holds it ranks d_k only for (n-1)/2 <= k <= n-2
and mirrors each block's rank, and otherwise it ranks every degree.  Every
rank is still an exact elimination over Q or Q(i).

The representatives of `betti_numbers` are read off the same rows in L's
own basis.  For each cocycle v of the reduced basis of ker d_k, in pivot
order, the residual modulo the image of d_{k-1} plus the representatives
kept before it is the unique vector of v + span that is zero at the span's
pivot columns; a nonzero one, divided by its first nonzero entry, is kept.
The public `ce_differential` divides by D again to return a dense d_k.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import comb, lcm
from typing import NamedTuple

from . import kernel
from .errors import DegreeOutOfRange, GradingNotCompatible, TopClassMisplaced
from .exact import ExactMatrix
from .liealg import (
    LieAlgebra,
    StructureTable,
    _ad,
    _center_rows,
    _is_central,
    _lowest_table,
    _moved_table,
    _pair_brackets,
    commutator_ideal,
    structure_table,
)

__all__ = [
    "exterior_basis",
    "ce_differential",
    "betti_numbers",
    "bigraded_cohomology",
    "top_class_bidegree",
    "CohomologyTable",
]


@lru_cache(maxsize=None)
def exterior_basis(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Lexicographically ordered k-subsets of {0..n-1}."""
    return tuple(combinations(range(n), k))


class CohomologyTable(NamedTuple):
    betti: tuple[int, ...]
    by_bidegree: tuple[tuple[int, int, int, int], ...] | None = None  # (j, p, q, dim)
    representatives: dict | None = None  # degree -> tuple of coordinate vectors

    def bidegree_dims(self) -> dict[tuple[int, int, int], int]:
        if self.by_bidegree is None:
            return {}
        return {(j, p, q): d for (j, p, q, d) in self.by_bidegree}

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti))


def ce_differential(L: LieAlgebra, k: int) -> ExactMatrix:
    """Matrix of d: Lambda^k -> Lambda^{k+1} on column coordinate vectors."""
    n = L.dim
    if not 0 <= k <= n:
        raise DegreeOutOfRange(f"degree {k} out of range 0..{n}")
    cols = len(exterior_basis(n, k))
    rows = len(exterior_basis(n, k + 1)) if k < n else 0
    if not rows:
        return ExactMatrix.empty(cols, L.field)
    table = structure_table(L)
    d = _assemble(n, k, _dual_terms(table))
    return ExactMatrix._from_rows([(d.get(r, {}), table.den) for r in range(rows)], cols, L.field)


def _mask(mon: tuple[int, ...]) -> int:
    return sum(1 << t for t in mon)


@lru_cache(maxsize=None)
def _index(n: int, k: int) -> dict[int, int]:
    """Lexicographic index of each k-monomial, by its bit mask (bit t: x^t is a factor)."""
    return {_mask(mon): idx for idx, mon in enumerate(exterior_basis(n, k))}


def _dual_terms(table: StructureTable) -> dict[int, list]:
    """The terms of d x^m = -sum_{i<j} C_ij^m x^i ^ x^j, scaled to integers.

    From a `StructureTable`: ``terms[m]`` lists (mask of {i, j}, mask of the
    indices strictly between i and j, (-D C_ij^m, D C_ij^m)), D the table's
    common denominator, each scaled constant a Gaussian integer (re, im).
    """
    terms: dict[int, list] = {}
    for (i, j), row in table.rows.items():
        pair = (1 << i) | (1 << j)
        between = ((1 << j) - 1) ^ ((1 << (i + 1)) - 1)
        for m, (x, y) in row:
            terms.setdefault(m, []).append((pair, between, ((-x, -y), (x, y))))
    return terms


@lru_cache(maxsize=None)
def _avoiding(n: int, k: int, forbidden: int) -> tuple[int, ...]:
    """Bit masks of the k-subsets of {0..n-1} that miss every bit of ``forbidden``."""
    allowed = [t for t in range(n) if not forbidden >> t & 1]
    return tuple(_mask(mon) for mon in combinations(allowed, k))


def _assemble(n: int, k: int, terms: dict[int, list]) -> dict[int, dict]:
    """D times d_k as sparse Z[i] rows ``{dst monomial: {src monomial: entry}}``.

    Monomials are lexicographic indices, entries the Gaussian integers of
    `_dual_terms`; entries that cancel are left out, and so are zero rows.
    The loop runs over the terms: a term C_ij^m of d x^m meets exactly the
    k-monomials x^m ^ rest whose (k-1)-subset rest misses i, j and m
    (`_avoiding`), and sends each to rest + {i, j}.  k = 0 gives no rows.
    """
    if k == 0:
        return {}
    src_index, dst_index = _index(n, k), _index(n, k + 1)
    rows: dict[int, dict] = {}
    summed = False
    for m, mterms in terms.items():
        bit = 1 << m
        for pair, between, signed in mterms:
            # x^m sits in the slot numbered by the factors of rest below m,
            # which gives the Koszul sign.  Sorting (i, j, *rest) takes one
            # transposition per element of rest below i and one per element
            # below j; mod 2, that is the number of elements between i and
            # j.  The sum of the two counts is odd exactly when the count
            # in the symmetric difference of both sets is.
            odd = (bit - 1) ^ between
            for rest in _avoiding(n, k - 1, pair | bit):
                x = signed[(rest & odd).bit_count() & 1]
                c = src_index[rest | bit]
                r = dst_index[rest | pair]
                row = rows.get(r)
                if row is None:
                    rows[r] = {c: x}
                elif c not in row:
                    row[c] = x
                else:
                    y = row[c]
                    row[c] = (y[0] + x[0], y[1] + x[1])
                    summed = True
    if summed:
        for r in list(rows):
            row = {c: x for c, x in rows[r].items() if x != (0, 0)}
            if row:
                rows[r] = row
            else:
                del rows[r]
    return rows


def _sparse_differentials(n: int, table: StructureTable, degrees):
    """``{k: rows}``: D times d_k as `_assemble` rows for k in ``degrees``.

    The differentials are those of the dimension-``n`` algebra whose
    constants ``table`` holds.  No d_k of an abelian algebra is assembled.
    """
    if not table.rows:
        return {}
    terms = _dual_terms(table)
    return {k: _assemble(n, k, terms) for k in degrees}


def _unimodular(table: StructureTable) -> bool:
    """Whether tr ad X_t = sum_j C_tj^j is zero for every t, read off ``table``.

    Exact, on the table's integers: D times the trace sums the constants
    C_ij^j (to X_i's) and -C_ij^i (to X_j's) of each stored i < j, part by
    part, so over Q(i) the real and the imaginary parts must both vanish.
    """
    trace: dict[tuple[int, int], int] = {}  # (t, part) -> D tr ad X_t
    for (i, j), row in table.rows.items():
        for k, pair in row:
            if k in (i, j):
                t, sign = (i, 1) if k == j else (j, -1)
                for part, x in enumerate(pair):
                    trace[t, part] = trace.get((t, part), 0) + sign * x
    return not any(trace.values())


def _commutator_adapted_table(L: LieAlgebra) -> StructureTable:
    """L's structure constants in a basis adapted to C^1 = [L, L].

    The basis is the unit vectors e_j for the columns j that are not pivots
    of C^1's RREF basis, then the RREF rows r_a (pivot p_a) cleared of their
    denominators: R_a = d_a r_a, C^1's stored exact vector ``(R_a, d_a)``.
    Every bracket w lies in C^1, so w = sum_a w[p_a] r_a, and the new
    constants are the pivot entries of the old-basis brackets of the new
    basis vectors: no inverse is needed.  The bracket of two unit vectors
    is a row of the table, [e_j, R_a] comes from `liealg._ad` of R_a,
    taken once, and [R_b, R_a] = sum_j R_b[j] [X_j, R_a]; each is read at
    the pivots alone, entry a at p_a.  The dual generators of the n - dim
    C^1 unit vectors are closed.
    """
    n = L.dim
    table = structure_table(L)
    c1 = commutator_ideal(L)
    at = {min(row): a for a, (row, _) in enumerate(c1.rows)}
    free = [j for j in range(n) if j not in at]
    f = len(free)
    ads = [_ad(table.rows, row, n) for row, _ in c1.rows]
    # R_a carries d_a at its pivot, so w = sum_a (w[p_a] / d_a) R_a; over
    # the common multiple m of the d_a the coefficient is w[p_a] (m / d_a).
    dens = [d for _, d in c1.rows]
    m = lcm(*dens)
    scale = [m // d for d in dens]
    rows = {}
    for s, t in combinations(range(n), 2):
        if t < f:
            w = table.rows.get((free[s], free[t]), ())
            row = [(at[k], e) for k, e in w if k in at]
        else:
            ad = ads[t - f]
            u = {free[s]: (1, 0)} if s < f else c1.rows[s - f][0]
            terms = [(c, ad[j]) for j, c in u.items() if j in ad]
            row = []
            for p, a in at.items() if terms else ():
                x = y = 0
                for (c, d), (re, im) in terms:
                    x += c * re[p] - d * im[p]
                    y += c * im[p] + d * re[p]
                if x or y:
                    row.append((a, (x, y)))
        if row:
            rows[s, t] = tuple((f + a, (x * scale[a], y * scale[a])) for a, (x, y) in row)
    return StructureTable(L.field, table.den * m, rows)


def _graded_cohomology(n: int, table: StructureTable, dual: list) -> CohomologyTable:
    """Betti numbers and bidegree blocks of the complex of ``table``, of dimension ``n``.

    ``dual[m]`` is the bidegree of x^m, which ``table`` must keep.  Block
    sizes are the coefficients of t^k x^b in prod_m (1 + t x^dual[m]).  Each
    block keeps its rows' columns, ranked against all C(n, k); on a
    unimodular table only d_k for (n-1)/2 <= k <= n-2 is assembled, and
    block b of d_k gives the rank of block T - b of d_{n-1-k} (module
    docstring).
    """
    dims: list[dict] = [{(0, 0): 1}] + [{} for _ in range(n)]
    for p, q in dual:
        for k in range(n, 0, -1):
            for (a, b), size in dims[k - 1].items():
                dims[k][a + p, b + q] = dims[k].get((a + p, b + q), 0) + size
    ps, qs = [p for p, _ in dual], [q for _, q in dual]
    top_p, top_q = sum(ps), sum(qs)
    unimodular = _unimodular(table)
    degrees = range(n // 2, n - 1) if unimodular else range(1, n)
    diffs = _sparse_differentials(n, table, degrees)
    ranks: list[dict] = [{} for _ in range(n + 1)]  # ranks[k][b]: block b of d_k
    for k, rows in diffs.items():
        blocks: dict[tuple[int, int], list] = {}
        if len(dims[k + 1]) == 1:
            # One block, as in betti_numbers: no row's bidegree needs summing.
            if rows:
                blocks[next(iter(dims[k + 1]))] = list(rows.values())
        else:
            for r, row in rows.items():
                mon = exterior_basis(n, k + 1)[r]
                b = (sum(map(ps.__getitem__, mon)), sum(map(qs.__getitem__, mon)))
                blocks.setdefault(b, []).append(row)
        for (p, q), group in blocks.items():
            ranks[k][p, q] = kernel.rank(group, len(exterior_basis(n, k)), table.field)
            if unimodular:
                ranks[n - 1 - k][top_p - p, top_q - q] = ranks[k][p, q]
    betti, by_bidegree = [0] * (n + 1), []
    for k in range(n + 1):
        for b, size in sorted(dims[k].items()):
            # At k = 0, ranks[k - 1] is ranks[n], empty: d_n = 0.
            h = size - ranks[k].get(b, 0) - ranks[k - 1].get(b, 0)
            if h:
                betti[k] += h
                by_bidegree.append((k, *b, h))
    return CohomologyTable(betti=tuple(betti), by_bidegree=tuple(by_bidegree))


def betti_numbers(L: LieAlgebra, representatives: bool = False) -> CohomologyTable:
    """Betti numbers b_0..b_n, optionally with canonical cocycle representatives.

    L = core + Q^k (`_core_table`, on the table of
    `_commutator_adapted_table`), so by Kunneth the Poincare polynomial is
    the core's times (1 + t)^k: b_j = sum_i C(k, i) b_{j-i}(core).  The
    core's ranks are those of `_graded_cohomology`, one block per d_k; k =
    0 keeps the whole table and multiplies by 1.  The representatives,
    ``{k: vectors}`` in L's basis, are canonical: each is the residual of a
    cocycle modulo the image of d_{k-1} plus the representatives before it,
    zero at that span's pivot columns, with first nonzero entry 1.  Their
    entries are `Gaussian` exactly when L is over Q(i), and `Rational`
    otherwise.
    """
    n = L.dim
    core, k = _core_table(_commutator_adapted_table(L), n)
    betti = [0] * (n + 1)
    for j, b in enumerate(_graded_cohomology(n - k, core, [(0, 0)] * (n - k)).betti):
        for i in range(k + 1):
            betti[i + j] += comb(k, i) * b
    reps = _representatives(n, structure_table(L)) if representatives else None
    return CohomologyTable(betti=tuple(betti), representatives=reps)


def _core_table(table: StructureTable, n: int) -> tuple[StructureTable, int]:
    """``(core, k)``: a `_commutator_adapted_table` split as core + Q^k, k maximal.

    In the adapted basis the first f = n - dim C^1 vectors are unit vectors
    and the rest span C^1, where every constant lands; the brackets span
    C^1, so each of its positions holds a constant, and f is the least
    position that does (n when there is none).  The center's reduced rows
    (`liealg._center_rows`, with its equations at the positions f to n - 1,
    which are C^1's pivots here) whose pivots lie below f are a basis of a
    complement of Z n C^1 in Z, so there are k = dim Z - dim(Z n C^1) of
    them, and each is e_p plus vectors at no other such pivot p.  Those k
    central vectors span an abelian ideal, and the other n - k basis
    vectors span one holding C^1; the two ideals bracket to zero and
    together span L, so L is the direct sum of the core and Q^k.  This
    needs no nilpotency: any subspace holding C^1 is an ideal.  The core's
    table is ``table`` without the pairs that meet a pivot p, its indices
    renumbered; no constant sits at such a p.
    """
    free = min((m for row in table.rows.values() for m, _ in row), default=n)
    center = _center_rows(table, n, range(free, n))
    dropped = {p for p in (min(row) for row, _ in center) if p < free}
    index = {s: t for t, s in enumerate(s for s in range(n) if s not in dropped)}
    rows = {
        (index[i], index[j]): tuple((index[m], e) for m, e in row)
        for (i, j), row in table.rows.items()
        if i in index and j in index
    }
    return StructureTable(table.field, table.den, rows), len(dropped)


def _representatives(n: int, table: StructureTable) -> dict[int, tuple]:
    """The representatives of `betti_numbers`, in the basis of ``table``.

    One echelon takes the columns of d_{k-1}, then each cocycle; the row it
    adds for a cocycle that enlarges the span is its residual, scaled.
    """
    field = table.field
    diffs = _sparse_differentials(n, table, range(1, n))
    reps = {}
    for k in range(n + 1):
        ncols = len(exterior_basis(n, k))
        image: dict[int, dict] = {}
        for r, row in diffs.get(k - 1, {}).items():
            for c, x in row.items():
                image.setdefault(c, {})[r] = x
        echelon: list = []
        for col in image.values():
            kernel.zi_insert(echelon, col)
        chosen = []
        for row, _ in kernel.null_space(list(diffs.get(k, {}).values()), ncols, field):
            if kernel.zi_insert(echelon, row):
                lead, kept = echelon[-1]
                chosen.append(kernel.decode(*kernel.zi_exact(kept, lead), ncols, field))
        reps[k] = tuple(chosen)
    return reps


def bigraded_cohomology(L: LieAlgebra, grading) -> CohomologyTable:
    """Cohomology refined by bidegree blocks under a bracket-compatible grading.

    The grading's generators must be a basis, and L's table in that basis
    must keep bidegrees (`_grading_table`, which raises GradingNotCompatible
    otherwise).  Block dimensions sum to the Betti numbers.
    """
    return _graded_cohomology(L.dim, *_grading_table(L, grading.bidegree_rows(L.dim)))


def _grading_table(L: LieAlgebra, generators: dict):
    """``(table, dual)``: L's table in the basis of a grading's generators, and their bidegrees.

    ``generators`` holds Z[i] rows keyed by bidegree (p, q), each at its
    own scale (`Bigrading.bidegree_rows`): scaling a basis vector changes
    no rank and no zero pattern.  ``dual`` lists (-p, -q) in their order.  The
    table is `liealg._moved_table`'s, in lowest terms.  Generators that are
    not n, or not a basis, raise GradingNotCompatible.

    No inverse of the basis is formed: `_graded_solutions` solves each
    bracket in the generators of its target component, and `_solved_table`
    writes the solutions out.  When a bracket hits an absent bidegree or
    leaves its target, the table must keep bidegrees and does not: C_ij^k
    != 0 where dual k != dual i + dual j.  Only then is every constant
    formed, by `liealg._moved_table`, and GradingNotCompatible names the
    least such (k, (i, j)), the first entry of d_1 to leave its block.
    """
    n = L.dim
    rows = [row for comp_rows in generators.values() for row in comp_rows]
    if len(rows) != n:
        raise GradingNotCompatible(f"grading has {len(rows)} generators for dimension {n}")
    rank, solved, failures = _graded_solutions(L, generators)
    if rank < n:
        raise GradingNotCompatible(f"grading has {n} generators of rank {rank} in dimension {n}")
    if failures:
        dual = [(-p, -q) for (p, q), comp_rows in generators.items() for _ in comp_rows]

        def plus(i: int, j: int) -> tuple[int, int]:
            return dual[i][0] + dual[j][0], dual[i][1] + dual[j][1]

        # Which constants are nonzero depends neither on the table's field
        # nor on the scale of the rows.
        moved = _moved_table(L, rows, 1, L.field)[0]
        bad = [
            (k, i, j) for (i, j), row in moved.rows.items() for k, _ in row if dual[k] != plus(i, j)
        ]
        k, i, j = min(bad)
        raise GradingNotCompatible(
            f"d maps bidegree {dual[k]} monomial {(k,)} to {plus(i, j)} monomial "
            f"{(i, j)} in degree 1"
        )
    return _solved_table(L, generators, solved)


def _solved_table(L: LieAlgebra, generators: dict, solved: dict):
    """`_grading_table`'s ``(table, dual)``, read off the solutions of `_graded_solutions`.

    ``solved`` maps each pair (i, j) with a nonzero bracket to its
    ``solution``, which holds s at column 2n and -s c_k at column n + k, c
    the bracket's coordinates in the generators.
    """
    n = L.dim
    dual = [(-p, -q) for (p, q), comp_rows in generators.items() for _ in comp_rows]
    old = structure_table(L)
    # Each c_k times m is -(-s c_k) conj(s) m / |s|^2.
    m = lcm(*(x * x + y * y for x, y in (res[2 * n] for res in solved.values())))
    table = {}
    for ij, res in sorted(solved.items()):
        x, y = res[2 * n]
        f = m // (x * x + y * y)
        coords = kernel.zi_combine(((-f * x, f * y), res)).items()
        table[ij] = [(c - n, e) for c, e in sorted(coords) if c < 2 * n]
    parts = (y for comp_rows in generators.values() for row in comp_rows for _, y in row.values())
    field = "Qi" if old.field == "Qi" or any(parts) else "Q"
    return _lowest_table(field, old.den * m, table), dual


def _graded_solutions(L: LieAlgebra, generators: dict):
    """``(rank, solved, failures)``: a grading's generators ranked, and their brackets solved.

    ``generators`` holds Z[i] rows keyed by bidegree, numbered in their
    order; ``rank`` is their rank.  Only when it is n are brackets formed,
    each live pair once: the pairs of a generator that passes
    `_central_generators` are skipped, and the rest come by components a <=
    b in that order, `combinations` within one and `product` across two,
    bracketed by `liealg._pair_brackets`.  ``solved`` maps each pair (i, j)
    whose nonzero bracket lies in its target component a + b to its
    solution, and ``failures`` lists (a, b, a + b) for every other nonzero
    bracket, in loop order.

    A target component is reduced once, on the first bracket that lands in
    it: its rows t_k, each with a 1 appended at column n + k, go into one
    echelon (`kernel.zi_insert`).  [w | 0 | 1], with the 1 at column 2n,
    reduces on it to s [w | 0 | 1] - sum_k b_k [t_k | e_k], zero at every
    pivot, whose first n columns vanish exactly when w lies in the target,
    as sum_k (b_k / s) t_k.  That reduced row is the solution, and reading
    the coordinates off it is left to the caller that needs them
    (`_solved_table`).
    """
    n = L.dim
    # Lowest weight first: the search's (-1, -1) rows are the center's
    # reduced basis, and its U vanishes at their pivots, so U and conj U
    # are reduced only against each other.
    span: list = []
    ordered = (row for key in sorted(generators, key=sum) for row in generators[key])
    rank = sum(kernel.zi_insert(span, row) for row in ordered)
    solved: dict = {}
    failures: list = []
    if rank < n:
        return rank, solved, failures
    central = _central_generators(L, generators)
    starts, rows, live = {}, [], {}
    for key, comp_rows in generators.items():
        starts[key] = len(rows)
        live[key] = [s for s in range(len(rows), len(rows) + len(comp_rows)) if s not in central]
        rows += comp_rows
    bracket = _pair_brackets(structure_table(L), rows, n)
    keys = list(generators)
    echelons: dict = {}
    for x, a in enumerate(keys):
        for b in keys[x:]:
            target = (a[0] + b[0], a[1] + b[1])
            for i, j in combinations(live[a], 2) if a == b else product(live[a], live[b]):
                w = bracket(i, j)
                if not w:
                    continue
                if target in generators:
                    if target not in echelons:
                        echelons[target] = []
                        for k, row in enumerate(generators[target], starts[target]):
                            kernel.zi_insert(echelons[target], {**row, n + k: (1, 0)})
                    res = kernel.zi_reduce({**w, 2 * n: (1, 0)}, echelons[target])
                    if min(res) >= n:
                        solved[i, j] = res
                        continue
                failures.append((a, b, target))
    return rank, solved, failures


def _central_generators(L: LieAlgebra, generators: dict) -> set[int]:
    """The positions, in ``generators``' order, of the generators that `liealg._is_central` passes.

    ``generators`` holds Z[i] rows keyed by bidegree.  Only the absent-only
    components are tested: those whose every pairing, with themselves
    included, targets a bidegree absent from ``generators``, as the
    (-1, -1) component of a restricted shape does.  Every bracket of their
    generators must vanish.  Each test is one pass over the table, and a
    generator that passes brackets to zero with every vector, so none of
    its pairs need be formed.
    """
    n = L.dim
    table_rows = structure_table(L).rows
    keys = generators.keys()
    central, start = set(), 0
    for (p, q), comp_rows in generators.items():
        if all((p + a, q + b) not in keys for a, b in keys):
            central.update(
                start + t for t, row in enumerate(comp_rows) if _is_central(table_rows, row, n)
            )
        start += len(comp_rows)
    return central


def top_class_bidegree(L: LieAlgebra, grading) -> tuple[int, int]:
    """Bidegree (s, t) of the one-dimensional top cohomology class.

    s = sum(-p * dim g_{p,q}), t likewise in q; verified against the actual
    top block of the bigraded cohomology (TopClassMisplaced on failure).
    """
    n = L.dim
    s = sum(-comp.p * len(comp.rows) for comp in grading.components)
    t = sum(-comp.q * len(comp.rows) for comp in grading.components)
    table = bigraded_cohomology(L, grading)
    dims = table.bidegree_dims()
    top = {(p, q): d for (j, p, q), d in dims.items() if j == n}
    if top != {(s, t): 1}:
        raise TopClassMisplaced(
            f"top cohomology sits at {sorted(top)} instead of ({s}, {t})"
        )
    return (s, t)
