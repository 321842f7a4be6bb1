"""Exterior-algebra complex of a Lie algebra and its cohomology.

The complex is (Lambda* g^*, d) on the dual of the algebra, with the
convention (d x^m)(X_i, X_j) = -x^m([X_i, X_j]) in degree one, extended as an
odd derivation with the Koszul sign rule.  Monomials x^{m_1} ^ ... ^ x^{m_k}
are indexed by lexicographically ordered k-subsets of {0..n-1}; all matrices
and representative cocycles use this order.

Betti numbers b_k = dim ker d_k - rank d_{k-1}.  When a bigrading of the
algebra is supplied, each basis vector of bidegree (p, q) (p, q <= 0) gives a
dual generator of bidegree (-p, -q), monomial bidegrees add, and the
differential preserves them, so cohomology splits into bidegree blocks.

Each d_k is assembled once, sparsely, from bit masks of the monomials with
Koszul signs in closed form, out of a table of structure constants
(`liealg.StructureTable`).  Its entries are the constants times one common
denominator D of all of them: integers over Q, (re, im) Gaussian integers
over Q(i).  Scaling by D != 0 changes neither the rank nor which entries are
nonzero, so ranks are taken on these rows directly (``kernel.rank_q``/
``rank_qi``); d_0 and d_n are zero and are not assembled.

Betti numbers do not depend on the basis, so `betti_numbers` ranks the
differentials in a basis adapted to C^1 = [g, g]: unit vectors completing
C^1, then C^1's RREF basis (`_commutator_adapted_table`).  There the
n - dim C^1 dual generators of the unit vectors are closed, and each d_k
has fewer and shorter rows than in a basis where every d x^m is nonzero.
`bigraded_cohomology` ranks its blocks on the table in the grading's basis.

On a unimodular algebra (tr ad X = 0 for every X, as on every nilpotent
one) half of those ranks are known (Koszul's Poincare duality): d_{n-1} =
0, so for a in Lambda^k, b in Lambda^{n-1-k} the form d(a ^ b) = da ^ b +
(-1)^k a ^ db is zero, and under the perfect pairing Lambda^j x Lambda^{n-j}
-> Lambda^n d_k is the transpose of d_{n-1-k} up to sign: rank d_k = rank
d_{n-1-k}.  `betti_numbers` tests tr ad = 0 exactly on the adapted table
(`_unimodular`); when it holds it ranks d_k only for (n-1)/2 <= k <= n-2
and mirrors each rank, and otherwise it ranks every degree.  Every rank
is still an exact elimination over Q or Q(i).

The representatives of `betti_numbers` are read off the same rows in L's
own basis.  For each cocycle v of the reduced basis of ker d_k, in pivot
order, the residual modulo the image of d_{k-1} plus the representatives
kept before it is the unique vector of v + span that is zero at the span's
pivot columns; a nonzero one, divided by its first nonzero entry, is kept.
The public `ce_differential` divides by D again to return a dense d_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import lcm

from . import kernel
from .errors import DegreeOutOfRange, GradingNotCompatible, TopClassMisplaced
from .exact import ExactMatrix
from .liealg import (
    LieAlgebra,
    StructureTable,
    _bracket_q,
    _bracket_qi,
    _moved_table,
    commutator_ideal,
    structure_table,
)
from .scalars import Gaussian, Q0, Rational

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


@dataclass(frozen=True)
class CohomologyTable:
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
    zero = Gaussian(0) if L.field == "Qi" else Q0
    grid = [[zero] * cols for _ in range(rows)]
    if k:
        table = structure_table(L)
        field, den = table.field, table.den
        for r, row in _assemble(n, k, field, _dual_terms(table)).items():
            line = grid[r]
            for c, x in row.items():
                line[c] = (
                    Rational(x, den)
                    if field == "Q"
                    else Gaussian(Rational(x[0], den), Rational(x[1], den))
                )
    return ExactMatrix(grid, cols=cols)


def _mask(mon: tuple[int, ...]) -> int:
    return sum(1 << t for t in mon)


@lru_cache(maxsize=None)
def _masks(n: int, k: int) -> tuple[int, ...]:
    """Bit masks of the k-monomials in lexicographic order (bit t: x^t is a factor)."""
    return tuple(_mask(mon) for mon in exterior_basis(n, k))


def _dual_terms(table: StructureTable) -> dict[int, list]:
    """The terms of d x^m = -sum_{i<j} C_ij^m x^i ^ x^j, scaled to integers.

    From a `StructureTable`: ``terms[m]`` lists (mask of {i, j}, mask of the
    indices strictly between i and j, (-D C_ij^m, D C_ij^m)), D the table's
    common denominator.  The scaled constants are ints over Q and (re, im)
    Gaussian integers over Q(i).
    """
    field, _, columns = table
    terms: dict[int, list] = {}
    for i, j, ms, *parts in zip(*columns):
        pair = (1 << i) | (1 << j)
        between = ((1 << j) - 1) ^ ((1 << (i + 1)) - 1)
        if field == "Q":
            signed = [(-x, x) for x in parts[0]]
        else:
            signed = [((-x, -y), (x, y)) for x, y in zip(*parts)]
        for m, pm in zip(ms, signed):
            terms.setdefault(m, []).append((pair, between, pm))
    return terms


def _assemble(n: int, k: int, field: str, terms: dict[int, list]) -> dict[int, dict]:
    """D times d_k (0 < k < n) as sparse rows ``{dst monomial: {src monomial: entry}}``.

    Monomials are lexicographic indices, entries the integers of
    `_dual_terms`; entries that cancel are left out, and so are zero rows.
    """
    dst_index = {mask: idx for idx, mask in enumerate(_masks(n, k + 1))}
    rows: dict[int, dict] = {}
    summed = False
    for c, (mon, full) in enumerate(zip(exterior_basis(n, k), _masks(n, k))):
        for m in mon:
            mterms = terms.get(m)
            if mterms is None:
                continue
            rest = full ^ (1 << m)
            # x^m sits in slot r_pos, which gives the Koszul sign (-1)^{r_pos}.
            r_pos = (full & ((1 << m) - 1)).bit_count()
            for pair, between, signed in mterms:
                if rest & pair:
                    continue
                # Sorting (i, j, *rest) takes one transposition per element of
                # rest below i and one per element below j; mod 2, that is
                # the number of elements between i and j.
                x = signed[(r_pos + (rest & between).bit_count()) & 1]
                r = dst_index[rest | pair]
                row = rows.get(r)
                if row is None:
                    rows[r] = {c: x}
                elif c not in row:
                    row[c] = x
                else:
                    y = row[c]
                    row[c] = y + x if field == "Q" else (y[0] + x[0], y[1] + x[1])
                    summed = True
    if summed:
        zero = 0 if field == "Q" else (0, 0)
        for r in list(rows):
            row = {c: x for c, x in rows[r].items() if x != zero}
            if row:
                rows[r] = row
            else:
                del rows[r]
    return rows


def _sparse_differentials(n: int, table: StructureTable, degrees=None):
    """``(rank, {k: rows})``: D times d_k as `_assemble` rows for k in ``degrees``.

    The differentials are those of the dimension-``n`` algebra whose
    constants ``table`` holds, and ``rank`` is the kernel's rank for the
    rows' field.  ``degrees`` defaults to every 0 < k < n: d_0 and d_n are
    zero and are not assembled, nor is any d_k of an abelian algebra.
    """
    field, _, columns = table
    rank = kernel.rank_q if field == "Q" else kernel.rank_qi
    if n < 2 or not columns[0]:
        return rank, {}
    terms = _dual_terms(table)
    if degrees is None:
        degrees = range(1, n)
    return rank, {k: _assemble(n, k, field, terms) for k in degrees}


def _unimodular(table: StructureTable) -> bool:
    """Whether tr ad X_t = sum_j C_tj^j is zero for every t, read off ``table``.

    Exact, on the table's integers: D times the trace sums the constants
    C_ij^j (to X_i's) and -C_ij^i (to X_j's) of each stored i < j, part by
    part, so over Q(i) the real and the imaginary parts must both vanish.
    """
    _, _, columns = table
    trace: dict[tuple[int, int], int] = {}  # (t, part) -> D tr ad X_t
    for i, j, ks, *parts in zip(*columns):
        for part, xs in enumerate(parts):
            for k, x in zip(ks, xs):
                if k == j:
                    trace[i, part] = trace.get((i, part), 0) + x
                elif k == i:
                    trace[j, part] = trace.get((j, part), 0) - x
    return not any(trace.values())


def _commutator_adapted_table(L: LieAlgebra) -> StructureTable:
    """L's structure constants in a basis adapted to C^1 = [L, L].

    The basis is the unit vectors e_j for the columns j that are not pivots
    of C^1's RREF basis, then the RREF rows r_a (pivot p_a) cleared of their
    denominators: R_a = d_a r_a, C^1's stored exact vector ``(R_a, d_a)``.
    Every bracket w lies in C^1, so w = sum_a w[p_a] r_a, and the new
    constants are the pivot entries of the old-basis brackets of the new
    basis vectors: no inverse is needed.  The brackets are formed on
    `structure_table` over its field; the dual generators of the n - dim C^1
    unit vectors are closed.
    """
    n = L.dim
    field, den, columns = structure_table(L)
    c1 = commutator_ideal(L)
    pivots = [min(row) for row, _ in c1.rows]
    dens = [d for _, d in c1.rows]
    free = sorted(set(range(n)) - set(pivots))
    if field == "Q":
        zero, one, bracket = 0, 1, _bracket_q
    else:
        zero, one, bracket = (0, 0), (1, 0), _bracket_qi
    basis = [[one if k == j else zero for k in range(n)] for j in free]
    basis += [[row.get(k, zero) for k in range(n)] for row in c1.kernel_rows(field)]
    # R_a carries d_a at its pivot, so w = sum_a (w[p_a] / d_a) R_a; over
    # the common multiple m of the d_a the coefficient is w[p_a] (m / d_a).
    m = lcm(*dens)
    scale = [m // d for d in dens]
    new = ([], [], [], *([] for _ in columns[3:]))
    for s in range(n):
        for t in range(s + 1, n):
            w = bracket(columns, basis[s], basis[t], n)
            parts = (w,) if field == "Q" else w  # (ints,) or (re, im)
            hit = [a for a, p in enumerate(pivots) if any(part[p] for part in parts)]
            if hit:
                new[0].append(s)
                new[1].append(t)
                new[2].append(tuple(len(free) + a for a in hit))
                for col, part in zip(new[3:], parts):
                    col.append(tuple(part[pivots[a]] * scale[a] for a in hit))
    return StructureTable(field, den * m, tuple(map(tuple, new)))


def betti_numbers(L: LieAlgebra, representatives: bool = False) -> CohomologyTable:
    """Betti numbers b_0..b_n, optionally with canonical cocycle representatives.

    The ranks are taken in the basis of `_commutator_adapted_table`: of
    every d_k, or, when that table is unimodular, of d_k for (n-1)/2 <= k
    <= n-2 only, with rank d_{n-1-k} = rank d_k and rank d_{n-1} = 0
    (module docstring).  The representatives, ``{k: vectors}`` in L's
    basis, are canonical: each is the residual of a cocycle modulo the
    image of d_{k-1} plus the representatives before it, zero at that
    span's pivot columns, with first nonzero entry 1.  Their entries are
    `Gaussian` exactly when L is over Q(i), and `Rational` otherwise.
    """
    n = L.dim
    ranks = [0] * (n + 1)
    table = _commutator_adapted_table(L)
    # On a unimodular algebra d_{n-1} = 0 and d_k is, up to sign, the
    # transpose of d_{n-1-k}: rank the upper half and mirror it.
    unimodular = _unimodular(table)
    degrees = range(n // 2, n - 1) if unimodular else range(1, n)
    rank, diffs = _sparse_differentials(n, table, degrees)
    for k, rows in diffs.items():
        ranks[k] = rank(list(rows.values()), len(exterior_basis(n, k)))
        if unimodular:
            ranks[n - 1 - k] = ranks[k]
    betti = []
    for k in range(n + 1):
        dim_k = len(exterior_basis(n, k))
        rank_prev = ranks[k - 1] if k > 0 else 0
        betti.append(dim_k - ranks[k] - rank_prev)
    reps = _representatives(n, structure_table(L)) if representatives else None
    return CohomologyTable(betti=tuple(betti), representatives=reps)


def _representatives(n: int, table: StructureTable) -> dict[int, tuple]:
    """The representatives of `betti_numbers`, in the basis of ``table``.

    One echelon takes the columns of d_{k-1}, then each cocycle; the row it
    adds for a cocycle that enlarges the span is its residual, scaled.
    """
    field = table.field
    _, diffs = _sparse_differentials(n, table)

    def as_zi(row: dict) -> kernel.ZiRow:
        return row if field == "Qi" else {j: (x, 0) for j, x in row.items()}

    reps = {}
    for k in range(n + 1):
        ncols = len(exterior_basis(n, k))
        image: dict[int, dict] = {}
        for r, row in diffs.get(k - 1, {}).items():
            for c, x in row.items():
                image.setdefault(c, {})[r] = x
        echelon: list = []
        for col in image.values():
            kernel.zi_insert(echelon, as_zi(col))
        chosen = []
        for row, _ in kernel.null_space(list(diffs.get(k, {}).values()), ncols, field):
            if kernel.zi_insert(echelon, as_zi(row)):
                lead, kept = echelon[-1]
                vec = kernel.zi_decode(*kernel.zi_exact(kept, lead), ncols)
                chosen.append(vec if field == "Qi" else tuple(x.re for x in vec))
        reps[k] = tuple(chosen)
    return reps


def bigraded_cohomology(L: LieAlgebra, grading) -> CohomologyTable:
    """Cohomology refined by bidegree blocks under a bracket-compatible grading.

    Dual bidegrees are (-p, -q) >= 0 and add over monomials; the differential
    must preserve them (GradingNotCompatible otherwise).  Block dimensions sum
    to the Betti numbers.  The differentials are assembled from L's integer
    table in the basis of the grading's generators (`liealg._moved_table`).
    """
    n = L.dim
    generators, den = grading.kernel_rows(n)
    rows = [row for comp_rows in generators.values() for row in comp_rows]
    if len(rows) != n:
        raise GradingNotCompatible(
            f"grading has {len(rows)} generators for dimension {n}"
        )
    field = "Qi" if any(y for row in rows for _, y in row.values()) else "Q"
    adapted, _, _ = _moved_table(L, rows, den, field)
    dual = [(-p, -q) for (p, q), comp_rows in generators.items() for _ in comp_rows]
    # bideg[k][c]: the bidegree of the c-th k-monomial; pos[k][c]: its index
    # within its block; dims[k][b]: the size of the block of bidegree b.
    bideg, pos, dims = [], [], []
    for k in range(n + 1):
        bk, pk, dk = [], [], {}
        for mon in exterior_basis(n, k):
            b = (sum(dual[m][0] for m in mon), sum(dual[m][1] for m in mon))
            bk.append(b)
            pk.append(dk.get(b, 0))
            dk[b] = pk[-1] + 1
        bideg.append(bk)
        pos.append(pk)
        dims.append(dk)
    # block_rank[k][b]: rank of d_k on the block of bidegree b.  A compatible
    # d_k maps each block into the block of the same bidegree, so that is the
    # rank of the rows whose destination monomial has bidegree b.
    block_rank: list[dict] = [{} for _ in range(n + 1)]
    rank, diffs = _sparse_differentials(n, adapted)
    for k, rows in diffs.items():
        src, dst = bideg[k], bideg[k + 1]
        bad = min(
            ((c, r) for r, row in rows.items() for c in row if src[c] != dst[r]),
            default=None,
        )
        if bad is not None:
            c, r = bad
            raise GradingNotCompatible(
                f"d maps bidegree {src[c]} monomial {exterior_basis(n, k)[c]} to "
                f"{dst[r]} monomial {exterior_basis(n, k + 1)[r]} in degree {k}"
            )
        local = pos[k]
        blocks: dict[tuple[int, int], list] = {}
        for r, row in rows.items():
            blocks.setdefault(dst[r], []).append(
                {local[c]: x for c, x in row.items()}
            )
        block_rank[k] = {
            b: rank(group, dims[k][b]) for b, group in blocks.items()
        }
    betti = []
    by_bidegree: dict[tuple[int, int, int], int] = {}
    for k in range(n + 1):
        total = 0
        for (p, q), dim_block in sorted(dims[k].items()):
            h = dim_block - block_rank[k].get((p, q), 0)
            if k > 0:
                h -= block_rank[k - 1].get((p, q), 0)
            if h:
                by_bidegree[(k, p, q)] = h
            total += h
        betti.append(total)
    table = tuple(
        (j, p, q, d) for (j, p, q), d in sorted(by_bidegree.items())
    )
    return CohomologyTable(betti=tuple(betti), by_bidegree=table)


def top_class_bidegree(L: LieAlgebra, grading) -> tuple[int, int]:
    """Bidegree (s, t) of the one-dimensional top cohomology class.

    s = sum(-p * dim g_{p,q}), t likewise in q; verified against the actual
    top block of the bigraded cohomology (TopClassMisplaced on failure).
    """
    n = L.dim
    s = sum(-comp.p * len(comp.generators) for comp in grading.components)
    t = sum(-comp.q * len(comp.generators) for comp in grading.components)
    table = bigraded_cohomology(L, grading)
    dims = table.bidegree_dims()
    top = {(p, q): d for (j, p, q), d in dims.items() if j == n}
    if top != {(s, t): 1}:
        raise TopClassMisplaced(
            f"top cohomology sits at {sorted(top)} instead of ({s}, {t})"
        )
    return (s, t)
