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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import DegreeOutOfRange, GradingNotCompatible, TopClassMisplaced
from .exact import ExactMatrix, Subspace
from .liealg import LieAlgebra, apply_basis_change
from .scalars import Gaussian, Q0

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
    src = exterior_basis(n, k)
    # Monomials are looked up by bit mask: bit t is set when x^t is a factor.
    dst = exterior_basis(n, k + 1) if k < n else ()
    dst_index = {_mask(mon): idx for idx, mon in enumerate(dst)}
    rows = len(dst_index)
    cols = len(src)
    zero = Gaussian(0) if L.field == "Qi" else Q0
    grid = [[zero] * cols for _ in range(rows)]
    if rows == 0 or cols == 0 or k == 0:
        if not rows:
            return ExactMatrix.empty(cols, L.field)
        return ExactMatrix(grid, cols=cols)
    duals = _dual_differentials(L)
    for c, mon in enumerate(src):
        full = _mask(mon)
        for m in mon:
            terms = duals.get(m)
            if terms is None:
                continue
            rest = full ^ (1 << m)
            # x^m sits in slot r_pos, which gives the Koszul sign (-1)^{r_pos}.
            r_pos = (full & ((1 << m) - 1)).bit_count()
            for pair, between, signed in terms:
                if rest & pair:
                    continue
                # Sorting (i, j, *rest) takes one transposition per element of
                # rest below i and one per element below j; mod 2, that is
                # the number of elements between i and j.
                x = signed[(r_pos + (rest & between).bit_count()) & 1]
                row = dst_index[rest | pair]
                cur = grid[row][c]
                grid[row][c] = x if cur is zero else cur + x
    return ExactMatrix(grid, cols=cols)


def _mask(mon: tuple[int, ...]) -> int:
    return sum(1 << t for t in mon)


def _dual_differentials(L: LieAlgebra):
    """For each m: the terms of d x^m = -sum_{i<j} C_ij^m x^i ^ x^j.

    A term is (mask of {i, j}, mask of the indices strictly between i and j,
    (-C_ij^m, C_ij^m)); over Q(i) both are Gaussians.
    """
    out: dict[int, list] = {}
    promote = L.field == "Qi"
    for (i, j), coeffs in L.brackets:
        pair = (1 << i) | (1 << j)
        between = ((1 << j) - 1) ^ ((1 << (i + 1)) - 1)
        for m, w in coeffs:
            if promote and not isinstance(w, Gaussian):
                w = Gaussian(w)
            out.setdefault(m, []).append((pair, between, (-w, w)))
    return out


def betti_numbers(L: LieAlgebra, representatives: bool = False) -> CohomologyTable:
    """Betti numbers b_0..b_n, optionally with canonical cocycle representatives."""
    n = L.dim
    diffs = [ce_differential(L, k) for k in range(n + 1)]
    ranks = [d.rank() for d in diffs]
    betti = []
    for k in range(n + 1):
        dim_k = len(exterior_basis(n, k))
        rank_prev = ranks[k - 1] if k > 0 else 0
        betti.append(dim_k - ranks[k] - rank_prev)
    reps = None
    if representatives:
        reps = {}
        from .exact import kernel_basis

        for k in range(n + 1):
            cocycles = kernel_basis(diffs[k])
            if k == 0:
                image = Subspace.zero(cocycles.ambient_dim)
            else:
                image = Subspace.from_spanning(
                    diffs[k - 1].transpose().entries,
                    ambient_dim=len(exterior_basis(n, k)),
                )
            chosen = []
            span = image
            for v in cocycles.vectors():
                reduced = span.reduce(v)
                if any(reduced):
                    lead = next(x for x in reduced if x)
                    normalized = tuple(x / lead for x in reduced)
                    chosen.append(normalized)
                    span = Subspace.from_spanning(
                        list(span.vectors()) + [normalized],
                        ambient_dim=span.ambient_dim,
                    )
            reps[k] = tuple(chosen)
    return CohomologyTable(betti=tuple(betti), representatives=reps)


def _grading_transformation(L: LieAlgebra, grading) -> tuple[ExactMatrix, list]:
    """Rows = grading generators (the adapted basis); parallel bidegree list."""
    rows = []
    bidegrees = []
    for comp in grading.components:
        for g in comp.generators:
            rows.append(g)
            bidegrees.append((comp.p, comp.q))
    t = ExactMatrix(rows, cols=L.dim)
    return t, bidegrees


def bigraded_cohomology(L: LieAlgebra, grading) -> CohomologyTable:
    """Cohomology refined by bidegree blocks under a bracket-compatible grading.

    Dual bidegrees are (-p, -q) >= 0 and add over monomials; the differential
    must preserve them (GradingNotCompatible otherwise).  Block dimensions sum
    to the Betti numbers.
    """
    n = L.dim
    t, bidegrees = _grading_transformation(L, grading)
    if t.rows != n:
        raise GradingNotCompatible(
            f"grading has {t.rows} generators for dimension {n}"
        )
    adapted = apply_basis_change(L, t, name=f"{L.name}.adapted")
    dual = [(-p, -q) for (p, q) in bidegrees]

    def mono_bidegree(mon: tuple[int, ...]) -> tuple[int, int]:
        return (
            sum(dual[m][0] for m in mon),
            sum(dual[m][1] for m in mon),
        )

    diffs = [ce_differential(adapted, k) for k in range(n + 1)]
    # Compatibility: every nonzero entry of d must connect equal bidegrees.
    for k in range(n):
        src = exterior_basis(n, k)
        dst = exterior_basis(n, k + 1)
        mat = diffs[k]
        for c, mon in enumerate(src):
            bc = mono_bidegree(mon)
            for r, dmon in enumerate(dst):
                if mat.entries[r][c] and mono_bidegree(dmon) != bc:
                    raise GradingNotCompatible(
                        f"d maps bidegree {bc} monomial {mon} to "
                        f"{mono_bidegree(dmon)} monomial {dmon} in degree {k}"
                    )
    betti = []
    by_bidegree: dict[tuple[int, int, int], int] = {}
    for k in range(n + 1):
        src = exterior_basis(n, k)
        blocks: dict[tuple[int, int], list[int]] = {}
        for idx, mon in enumerate(src):
            blocks.setdefault(mono_bidegree(mon), []).append(idx)
        total = 0
        for (p, q), col_idx in sorted(blocks.items()):
            dim_block = len(col_idx)
            rank_out = _block_rank(diffs[k], exterior_basis(n, k + 1) if k < n else (),
                                   col_idx, mono_bidegree, (p, q), n, k)
            rank_in = 0
            if k > 0:
                prev_src = exterior_basis(n, k - 1)
                prev_cols = [
                    i for i, mon in enumerate(prev_src) if mono_bidegree(mon) == (p, q)
                ]
                rank_in = _block_rank(
                    diffs[k - 1], src, prev_cols, mono_bidegree, (p, q), n, k - 1
                )
            h = dim_block - rank_out - rank_in
            if h:
                by_bidegree[(k, p, q)] = h
            total += h
        betti.append(total)
    table = tuple(
        (j, p, q, d) for (j, p, q), d in sorted(by_bidegree.items())
    )
    return CohomologyTable(betti=tuple(betti), by_bidegree=table)


def _block_rank(mat, dst_basis, col_idx, mono_bidegree, bidegree, n, k):
    """Rank of the differential restricted to one bidegree block."""
    if not col_idx or mat.rows == 0:
        return 0
    row_idx = [r for r, mon in enumerate(dst_basis) if mono_bidegree(mon) == bidegree]
    if not row_idx:
        return 0
    from . import kernel as _kernel

    entries = mat.entries
    rows = _kernel.encode(
        ([entries[r][c] for c in col_idx] for r in row_idx), mat.field
    )
    if mat.field == "Q":
        return _kernel.rank_q(rows, len(col_idx))
    return _kernel.rank_qi(rows, len(col_idx))


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
