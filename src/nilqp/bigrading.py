"""Bigradings of complexified nilpotent Lie algebras.

A bigrading assigns basis vectors to integer bidegrees (p, q) with p, q <= 0
and p + q <= -1.  Verification checks four things: the generators span as a
direct sum, the bracket is additive on bidegrees, conjugation exchanges (p, q)
and (q, p) (exactly, or modulo lower total weight), and the induced bigraded
cohomology in degree j is supported in I_j = {j <= p+q <= 2j, 0 <= p,q <= j}.

The same data can be packaged as a pair of filtrations (increasing weight W,
decreasing F) and recovered from them by the standard splitting formula; both
directions are implemented and round-trip on every stored grading.

The bounded search looks for a restricted-shape grading

    g = U + conj(U) + Z(g),   [U, U] = 0,  U + conj(U) a complement of Z

by exact linear algebra on the rational form R and the quotient V = R / Z.
Over Q, R is the algebra itself, whose constants are all `Rational`; over
Q(i) it is read off the table in a basis of the fixed space of conjugation.
The bracket of V is read once, as one alternating form on V per basis
vector of the commutator ideal C^1 (`_TwoStepFrame`).  The constructions
are one ordered table of named stages (`_STAGES`); each stage that applies
runs in turn, and the first to return U wins:

1. trivial: when v = dim V = 0, U = 0.
2. darboux: when C^1 is a line, a symplectic basis of its form.
3. regular_pencil: when dim C^1 = 2 and a member of the pencil of the two
   forms is invertible, cyclic subspaces of the pencil operator.
4. singular_pencil_dfs: when dim C^1 = 2 and every member is degenerate,
   a depth-first search seeded with the members' kernels.
5. jspace: when dim C^1 >= 2, a complex structure J on V compatible with
   every form (Salamon, J. Pure Appl. Algebra 157 (2001) 311-333), which
   gives U = {x - iJx}.
6. dfs: when dim C^1 >= 3, or the pencil is regular, a depth-first search
   over the exactly solved commutation constraint spaces.

Every hit is re-verified before being returned; exhaustion yields
NotFoundWithinBounds, never a nonexistence claim.

Verification and every construction run on integers: the forms are
read as integers off `liealg.structure_table`, a vector is an exact vector
``(row, den)`` on the kernel's Z[i] rows, spans and memberships are read
off echelons (`kernel.zi_insert`/`kernel.zi_reduce`), subspaces and their
meets are null spaces (`kernel.null_space`, or `kernel.null_space_within`
where a subspace is cut by more rows).  Verification reads a grading's
brackets from the one loop that `bigraded_cohomology`'s table reads
(`cohomology._graded_brackets`): each pair formed once on the same table
and solved in its target component, on one echelon per component.  It
tests each generator that must be central once (`liealg._is_central`)
instead of pair by pair.  On a real table, a pair of generators whose
rows are the conjugates of a pair bracketed before, up to sign, takes that
bracket's conjugate up to sign (`liealg._pair_brackets`), so the search's
U and conj U cost h^2 brackets, not h(2h - 1).  A component whose
conjugated rows are its mirror's rows passes the conjugation check without
elimination.  The J-space
construction keeps its solution space as integer matrices over one
denominator and its candidates as integer coefficient tuples.  The
constructions' number theory (lowest terms, exact square roots, rational
roots, Legendre's conic solver) is `nilqp._arith`, on plain ints.  Each
construction returns U as exact vectors; the search lifts them,
conjugates them (`_conjugation`) and verifies those rows, and decodes
scalars once, for the `Bigrading` found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate, chain, combinations, islice, permutations, product, repeat
from math import lcm

from ._arith import isqrt_exact, lowest_terms, rational_roots, solve_ternary
from .cohomology import _central_generators, _graded_brackets, _graded_cohomology, _solved_table
from .errors import (
    AmbientMismatch,
    GradingNotCompatible,
    InputError,
    MissingRealStructure,
    NotAFiltration,
)
from . import kernel
from .exact import ExactMatrix, RowReducer, Subspace, Vector, _conjugate_row
from .liealg import (
    LieAlgebra,
    _moved_table,
    _real_form,
    center,
    commutator_ideal,
    lower_central_series,
    real_structure_rows,
    structure_table,
)
from .scalars import as_scalar

__all__ = [
    "Bigrading",
    "BigradingComponent",
    "GradingReport",
    "FiltrationPair",
    "SearchBounds",
    "SearchOutcome",
    "verify_bigrading",
    "filtrations_from_bigrading",
    "bigrading_from_filtrations",
    "search_bigrading",
]


@dataclass(frozen=True)
class BigradingComponent:
    p: int
    q: int
    generators: tuple[Vector, ...]

    def subspace(self, ambient: int) -> Subspace:
        return Subspace.from_spanning(self.generators, ambient_dim=ambient)


@dataclass(frozen=True)
class Bigrading:
    components: tuple[BigradingComponent, ...]

    @classmethod
    def build(cls, components) -> "Bigrading":
        comps = []
        seen = set()
        for p, q, gens in components:
            if p > 0 or q > 0 or p + q > -1:
                raise GradingNotCompatible(
                    f"bidegree ({p}, {q}) violates p, q <= 0 and p + q <= -1"
                )
            if (p, q) in seen:
                raise GradingNotCompatible(f"duplicate bidegree ({p}, {q})")
            seen.add((p, q))
            gen_vecs = tuple(tuple(map(as_scalar, g)) for g in gens)
            if not gen_vecs:
                continue
            comps.append(BigradingComponent(p=p, q=q, generators=gen_vecs))
        comps.sort(key=lambda c: (-(c.p + c.q), -c.q))
        return cls(components=tuple(comps))

    @property
    def ambient_dim(self) -> int:
        for c in self.components:
            return len(c.generators[0])
        return 0

    @property
    def total_generators(self) -> int:
        return sum(len(c.generators) for c in self.components)

    def bidegrees(self) -> tuple[tuple[int, int], ...]:
        return tuple((c.p, c.q) for c in self.components)

    def component(self, p: int, q: int) -> BigradingComponent | None:
        for c in self.components:
            if (c.p, c.q) == (p, q):
                return c
        return None

    def canonical(self) -> "Bigrading":
        """Same decomposition with each component's canonical (RREF) basis."""
        n = self.ambient_dim
        return Bigrading.build(
            (c.p, c.q, c.subspace(n).vectors()) for c in self.components
        )

    def is_restricted_shape(self) -> bool:
        return set(self.bidegrees()) <= {(-1, 0), (0, -1), (-1, -1)}

    def is_diagonal(self) -> bool:
        return all(c.p == c.q for c in self.components)

    def kernel_rows(self, ambient: int) -> tuple[dict[tuple[int, int], list[kernel.ZiRow]], int]:
        """The generators as Z[i] rows by bidegree, over one denominator (`kernel.zi_rows`).

        Raises AmbientMismatch for a generator whose length is not ``ambient``.
        """
        for v in (v for c in self.components for v in c.generators if len(v) != ambient):
            raise AmbientMismatch(f"vector of length {len(v)} in ambient dimension {ambient}")
        rows, den = kernel.zi_rows([v for c in self.components for v in c.generators])
        it = iter(rows)
        return {(c.p, c.q): [next(it) for _ in c.generators] for c in self.components}, den


@dataclass
class GradingReport:
    """Outcome of verify_bigrading.

    cohomology_support_ok is the weight-band condition j <= p+q <= 2j on every
    nonzero H^j_{p,q}; support_box_ok additionally requires 0 <= p, q <= j.
    Validity uses the band: general-shape gradings of higher-step algebras can
    satisfy every structural axiom and the band while exceeding the box, and
    the box never fails for restricted-shape gradings.
    """

    mode: str
    spans: bool
    bracket_compatible: bool
    conjugation: str  # "exact" | "mod_lower_weight" | "fails"
    shape: str  # "restricted" | "general"
    cohomology_support_ok: bool
    support_box_ok: bool = True
    failures: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        conj_ok = (
            self.conjugation == "exact"
            if self.mode == "strict"
            else self.conjugation != "fails"
        )
        return (
            self.spans
            and self.bracket_compatible
            and conj_ok
            and self.cohomology_support_ok
        )


def verify_bigrading(L: LieAlgebra, g: Bigrading, mode: str = "strict") -> GradingReport:
    """Check all bigrading axioms; failures are reported, not raised.

    The grading lives on L itself.  Over Q its vectors are read in L's
    complexification without building it: L's table, whose Z[i] constants
    have zero imaginary parts, and entrywise conjugation (`_conjugation`).
    Over Q(i), L needs a real structure.
    """
    if mode not in ("strict", "lax"):
        raise ValueError(f"mode must be 'strict' or 'lax', not {mode!r}")
    if L.field == "Qi" and L.real_structure is None:
        raise MissingRealStructure(f"{L.name}: conjugation checks need a real structure")
    return _verify_rows(L, g, g.kernel_rows(L.dim)[0], mode)


def _verify_rows(L: LieAlgebra, g: Bigrading, rows: dict, mode: str) -> GradingReport:
    """`verify_bigrading` of ``g`` on L, from the generators' Z[i] rows.

    ``rows`` holds each component's generators as Z[i] rows keyed by
    bidegree, at any nonzero scale (`Bigrading.kernel_rows`).  Spans and
    containments do not depend on scale and are read off echelons
    (`kernel.zi_insert`/`kernel.zi_reduce`): the spans off one echelon that
    takes the lowest weight first, and a mirror component's echelon only
    where the conjugation check (`_conjugation`) reads it.

    The brackets come from `cohomology._graded_brackets`, the one loop that
    the grading table reads too: each live pair is bracketed once and
    solved in its target component, one echelon per component, and a
    bracket with no solution is a failure.  Each generator of a component
    whose every pairing targets a bidegree absent from the grading, such as
    the (-1, -1) component of the restricted shape, is first tested once on
    the table (`cohomology._central_generators`).  Every pair that involves
    one that passes is skipped: its bracket is zero, so it adds no failure.
    On a real table, a pair of generators whose rows are the conjugates of
    a pair bracketed before takes the conjugate of that bracket.  Every
    other pair is bracketed, so the failures, their order and the report
    are those of bracketing every pair.  A general shape's support check
    ranks the table written from the same solutions
    (`cohomology._solved_table`), with no second bracket.  A component whose
    rows, conjugated, are its mirror's rows passes the conjugation check
    without elimination.  The tests read the table alone, never the center
    or C^1 computed from it, which verification must not lean on.
    """
    n = L.dim
    failures: list = []
    rank = None
    if g.total_generators == n:
        # Lowest weight first: the search's (-1, -1) rows are the center's
        # reduced basis, and its U vanishes at their pivots, so U and conj U
        # are reduced only against each other.
        span: list = []
        rank = sum(
            kernel.zi_insert(span, row) for key in sorted(rows, key=sum) for row in rows[key]
        )
    spans = rank == n
    if not spans:
        failures.append(
            {
                "check": "spans",
                "detail": f"{g.total_generators} generators of rank "
                f"{'n/a' if rank is None else rank} in dimension {n}",
            }
        )

    bracket_ok = True
    solved: dict = {}
    if spans:
        central = _central_generators(L, rows)
        for ij, (p, q), (a, b), target, solution in _graded_brackets(L, rows, central):
            if solution is not None:
                solved[ij] = solution
                continue
            bracket_ok = False
            if target not in rows:
                detail = f"[{p},{q}] x [{a},{b}] hits absent bidegree {target}"
            else:
                detail = (
                    f"bracket of ({p},{q}) and ({a},{b}) generators leaves the {target} component"
                )
            failures.append({"check": "bracket", "detail": detail})

    conjugation = "fails"
    if spans:
        conj, _ = _conjugation(L)
        exact_all = True
        lax_all = True
        for c in g.components:
            img = [conj(row) for row in rows[c.p, c.q]]
            mirror_rows = rows.get((c.q, c.p), [])
            if img == mirror_rows:
                continue
            mirror: list = []
            for row in mirror_rows:
                kernel.zi_insert(mirror, row)
            # The generators are independent, so each component's rank is its
            # size.  conj maps the component's span onto the span of img, so
            # img equals the mirror when it has the same rank and lies in it.
            if len(img) != len(mirror) or any(kernel.zi_reduce(row, mirror) for row in img):
                exact_all = False
                allowed = mirror
                for (p, q), comp_rows in rows.items():
                    if p + q < c.p + c.q:
                        for row in comp_rows:
                            kernel.zi_insert(allowed, row)
                if any(kernel.zi_reduce(row, allowed) for row in img):
                    lax_all = False
                    detail = f"conj of ({c.p},{c.q}) not inside ({c.q},{c.p}) + lower weight"
                else:
                    detail = f"conj of ({c.p},{c.q}) equals ({c.q},{c.p}) only modulo lower weight"
                failures.append({"check": "conjugation", "detail": detail})
        conjugation = "exact" if exact_all else ("mod_lower_weight" if lax_all else "fails")

    # In the restricted shape dual generators carry bidegrees (1,0), (0,1),
    # (1,1); a degree-j monomial with a + b + c = j of them sits at (a+c,
    # b+c), which obeys j <= p+q <= 2j and 0 <= p,q <= j outright.
    support_ok = box_ok = spans and bracket_ok
    if support_ok and not g.is_restricted_shape():
        # The generators span and every bracket was solved in its target, so
        # the table in their basis keeps bidegrees; the rows' scale does not matter.
        table = _graded_cohomology(n, *_solved_table(L, rows, 1, solved))
        for (j, p, q, d) in table.by_bidegree:
            if not j <= p + q <= 2 * j:
                support_ok = False
                failures.append(
                    {
                        "check": "support",
                        "detail": f"H^{j} has dimension {d} at ({p},{q}) "
                        f"outside the weight band [{j}, {2 * j}]",
                    }
                )
            elif not (0 <= p <= j and 0 <= q <= j):
                box_ok = False
                failures.append(
                    {
                        "check": "support_box",
                        "detail": f"H^{j} has dimension {d} at ({p},{q}) "
                        f"outside the box 0 <= p, q <= {j}",
                    }
                )
    elif spans and not bracket_ok:
        failures.append(
            {"check": "support", "detail": "skipped: bracket incompatible"}
        )

    shape = "restricted" if g.is_restricted_shape() else "general"
    return GradingReport(
        mode=mode,
        spans=spans,
        bracket_compatible=bracket_ok,
        conjugation=conjugation,
        shape=shape,
        cohomology_support_ok=support_ok,
        support_box_ok=box_ok,
        failures=failures,
    )


def _conjugation(L: LieAlgebra):
    """``(conj, den)``: x -> den * S conj(x) on Z[i] rows, S = L's real structure.

    Without a real structure, as over Q, S is the identity and conjugation
    is entrywise (`kernel.zi_conj`, ``den`` 1); otherwise it runs on
    `liealg.real_structure_rows`.
    """
    if L.real_structure is None:
        return kernel.zi_conj, 1
    s_rows, s_den = real_structure_rows(L)
    return partial(_conjugate_row, s_rows), s_den


# -- filtrations -------------------------------------------------------------


@dataclass(frozen=True)
class FiltrationPair:
    """Increasing weight filtration W and decreasing filtration F."""

    ambient_dim: int
    weight: tuple[tuple[int, Subspace], ...]  # sorted by k, increasing spaces
    hodge: tuple[tuple[int, Subspace], ...]  # sorted by p, decreasing spaces

    @classmethod
    def build(cls, ambient_dim: int, weight: dict, hodge: dict) -> "FiltrationPair":
        w = tuple(sorted(weight.items()))
        f = tuple(sorted(hodge.items()))
        for (k1, s1), (k2, s2) in zip(w, w[1:]):
            if not s1.is_subspace_of(s2):
                raise NotAFiltration(f"W_{k1} is not contained in W_{k2}")
        for (p1, s1), (p2, s2) in zip(f, f[1:]):
            if not s2.is_subspace_of(s1):
                raise NotAFiltration(f"F^{p2} is not contained in F^{p1}")
        return cls(ambient_dim=ambient_dim, weight=w, hodge=f)

    def w(self, k: int) -> Subspace:
        """W_k, extended by zero below and stabilized above the stored range."""
        out = Subspace.zero(self.ambient_dim)
        for kk, s in self.weight:
            if kk <= k:
                out = s
            else:
                break
        return out

    def f(self, p: int) -> Subspace:
        """F^p: the entry at the smallest stored index >= p (decreasing)."""
        for pp, s in self.hodge:
            if pp >= p:
                return s
        return Subspace.zero(self.ambient_dim)


def filtrations_from_bigrading(g: Bigrading) -> FiltrationPair:
    """W_k = sum of components with p + q <= k; F^p = sum with first index >= p."""
    n = g.ambient_dim
    if n == 0:
        raise GradingNotCompatible("empty bigrading has no ambient space")
    weights = sorted({c.p + c.q for c in g.components})
    ps = sorted({c.p for c in g.components})
    weight: dict[int, Subspace] = {}
    lo = weights[0]
    for k in range(lo - 1, 1):
        vecs = [
            v for c in g.components if c.p + c.q <= k for v in c.generators
        ]
        weight[k] = Subspace.from_spanning(vecs, ambient_dim=n)
        if weight[k].dim == n:
            break
    hodge: dict[int, Subspace] = {}
    for p in range(ps[0], 1):
        vecs = [v for c in g.components if c.p >= p for v in c.generators]
        hodge[p] = Subspace.from_spanning(vecs, ambient_dim=n)
    hodge[1] = Subspace.zero(n)
    return FiltrationPair.build(n, weight, hodge)


def _conj_subspace(s: Subspace, s_rows) -> Subspace:
    """{S conj(x) : x in s} for the real structure S with the Z[i] rows ``s_rows``."""
    rows = [_conjugate_row(s_rows, row) for row, _ in s.rows]
    return Subspace._span(rows, s.ambient_dim, "Qi")


def bigrading_from_filtrations(
    fp: FiltrationPair, real_structure: ExactMatrix
) -> Bigrading:
    """Recover the bigrading by the standard splitting of a mixed structure.

    V_{p,q} = F^p n W_{p+q} n ( conj(F^q) n W_{p+q}
                                + sum_{i>=2} conj(F^{q-i+1}) n W_{p+q-i} ).
    """
    n = fp.ambient_dim
    if (real_structure.rows, real_structure.cols) != (n, n):
        raise AmbientMismatch(f"real structure is not {n}x{n}")
    s_rows, _ = kernel.zi_rows(real_structure.entries)
    comps = []
    for p in range(-n, 1):
        for q in range(-n, 1):
            if p + q > -1:
                continue
            w_pq = fp.w(p + q)
            if w_pq.dim == 0:
                continue
            first = fp.f(p).intersect(w_pq)
            if first.dim == 0:
                continue
            second = _conj_subspace(fp.f(q), s_rows).intersect(w_pq)
            lowest = fp.weight[0][0] if fp.weight else p + q
            i = 2
            while p + q - i >= lowest:
                term = _conj_subspace(fp.f(q - i + 1), s_rows).intersect(
                    fp.w(p + q - i)
                )
                second = second.sum(term)
                i += 1
            v_pq = first.intersect(second)
            if v_pq.dim:
                comps.append((p, q, v_pq.vectors()))
    return Bigrading.build(comps)


# -- bounded search ----------------------------------------------------------


@dataclass(frozen=True)
class SearchBounds:
    coefficients: tuple[int, ...] = (-1, 0, 1)
    depth: int = 2
    max_nodes: int = 20000

    def __post_init__(self):
        if not 1 <= self.depth <= 3:
            # The depth-first search combines at most three pool vectors.
            raise InputError(f"search depth must be 1, 2 or 3, got {self.depth}")
        if self.max_nodes < 1:
            raise InputError(f"search node budget must be >= 1, got {self.max_nodes}")


@dataclass
class SearchOutcome:
    status: str  # "obstructed" | "found" | "not_found_within_bounds"
    reason: str | None = None
    witness: dict | None = None
    bigrading: Bigrading | None = None
    report: GradingReport | None = None
    bounds: SearchBounds | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def _real_form_basis(L: LieAlgebra) -> tuple[list[kernel.ZiRow], int]:
    """Basis of the conjugation-fixed rational form of a Q(i) algebra.

    Solves S * conj(x) = x as a rational linear system on (Re x, Im x), and
    returns the basis as Z[i] rows over one denominator.
    """
    n = L.dim
    # Over the common denominator D of S, D S = A + iB with integer A, B, and
    # the real and imaginary parts of (A + iB)(a - ib) = D (a + ib) give the
    # rows of the 2n x 2n realified system on (a, b).
    s_rows, den = real_structure_rows(L)
    rows = []
    for out, row in enumerate(s_rows):
        a, b = zip(*(row.get(j, (0, 0)) for j in range(n)))
        row_re, row_im = [*a, *b], [*b, *(-x for x in a)]
        row_re[out] -= den
        row_im[n + out] -= den
        rows += [{c: (x, 0) for c, x in enumerate(r) if x} for r in (row_re, row_im)]
    fixed = kernel.null_space(rows, 2 * n, "Q")
    if len(fixed) != n:
        raise MissingRealStructure(
            f"{L.name}: fixed space of conjugation has dimension "
            f"{len(fixed)}, expected {n}"
        )
    # x = a + ib from the real vector (a, b).
    zero = (0, 0)
    return kernel.zi_common([
        ({j: (row.get(j, zero)[0], row.get(n + j, zero)[0]) for j in range(n)
          if j in row or n + j in row}, d)
        for row, d in fixed
    ])


def _realified(L: LieAlgebra):
    """(rational form, basis T_real of the rational form) of L.

    Over Q the rational form is L itself and T_real is None.  Over Q(i),
    L needs a real structure, T_real is Z[i] rows over one denominator, and
    the rational form holds the real parts of L's table in the basis T_real
    (`liealg._moved_table`); a nonzero imaginary part is refused.
    """
    if L.field == "Q":
        return L, None
    if L.real_structure is None:
        raise MissingRealStructure(f"{L.name}: conjugation checks need a real structure")
    t_real = _real_form_basis(L)
    table, _, _ = _moved_table(L, *t_real, "Qi")
    R = _real_form(f"{L.name}.real", table, tuple(f"e{i + 1}" for i in range(L.dim)))
    if R is None:
        raise MissingRealStructure(f"{L.name}: rational form has non-real constants")
    return R, t_real


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

    ``R`` is over Q with `Rational` constants, as `_realified` returns it.
    The frame also holds what the search's stages read: h = v / 2, the
    bounds, and the pencil (`_pencil_structure`), computed when a stage
    first reads it.
    """

    def __init__(self, R: LieAlgebra, bounds: SearchBounds):
        self.n = R.dim
        self.z = center(R)
        pivots = {min(row) for row, _ in self.z.rows}
        self.free = [j for j in range(self.n) if j not in pivots]
        self.v = len(self.free)
        self.h = self.v // 2
        self.bounds = bounds
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

    def dfs_seeds(self):
        """The generic DFS's seed groups and W: the pencil's, or `_generic_seeds`'."""
        return self.pencil if self.c1.dim == 2 else (_generic_seeds(self), None)

    def commutant_rows(self, rows) -> list[kernel.ZiRow]:
        """The nonzero rows F_t u for the Z[i] rows u in ``rows``.

        x commutes with every u exactly when x . F_t u = 0 for all of them.
        """
        return [
            fu for u in rows for form in self.form_rows if (fu := kernel.zi_matvec(form, u))
        ]


def _unit_vectors(v: int) -> list[tuple[kernel.ZiRow, int]]:
    return [({a: (1, 0)}, 1) for a in range(v)]


def _darboux_u(frame: _TwoStepFrame) -> list[tuple[kernel.ZiRow, int]]:
    """U generators for a one-dimensional commutator ideal (symplectic case).

    ``frame.c1`` must be a line: the search calls it only then.  Its form
    is then nondegenerate on V = R / Z: a vector pairing to zero with all of
    V brackets to zero with all of R, so it lies in Z and is 0 in V.  So
    every vector left finds a partner, and the reduction always succeeds.

    Symplectic reduction of the one form, from the unit vectors of V, on
    exact vectors ``(row, den)`` whose Z[i] rows are real: each pair (x, y)
    has form value 1 on it and is split off the vectors left.  U is returned
    as the exact vectors x - iy.
    """
    form, fden = frame.forms[0], frame.den

    def pair(x, y):
        """The form on the rows x and y, times ``fden``."""
        return sum(a * form[j][k] * b for j, (a, _) in x.items() for k, (b, _) in y.items())

    remaining = _unit_vectors(frame.v)
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
    return [
        kernel.zi_lowest(kernel.zi_combine(((yd, 0), x), ((0, -xd), y)), xd * yd)
        for x, xd, y, yd in pairs
    ]


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


# The pencil constructions and the depth-first search work on the kernel's
# Z[i] rows and exact vectors ``(row, den)`` in lowest terms
# (`kernel.zi_lowest`), so that equal vectors are equal pairs; a group of
# seeds is a list of them.


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


def _generic_seeds(frame: _TwoStepFrame) -> list[list[tuple[kernel.ZiRow, int]]]:
    """Degenerate-combination kernel groups for commutator dimension >= 3.

    The members tried are each form, then F_s + F_t and F_s - F_t for s < t.
    """
    units = [tuple(int(s == t) for s in range(frame.c1.dim)) for t in range(frame.c1.dim)]
    combos = units + [
        tuple(x + sign * y for x, y in zip(units[s], units[t]))
        for s, t in combinations(range(frame.c1.dim), 2)
        for sign in (1, -1)
    ]
    groups = []
    for null in _kernel_groups(frame, combos):
        groups.append(null)
        if sum(len(g) for g in groups) >= 4 * frame.v:
            break
    return groups


def _compatible_complex_structures(frame: _TwoStepFrame):
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


def _jspace_u(frame: _TwoStepFrame):
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


def _krylov_span(w_rows, u: kernel.ZiRow) -> list[kernel.ZiRow]:
    """The Z[i] rows u, Wu, W^2 u, ... while they are independent.

    ``w_rows`` are the rows of W times a denominator d, so the k-th row is
    W^k u times d^k.  No span is longer than the degree of W's minimal
    polynomial, which is at most h (`_minimal_degree`).
    """
    rows: list[kernel.ZiRow] = []
    echelon: list = []
    while u and kernel.zi_insert(echelon, u):
        rows.append(u)
        u = kernel.zi_matvec(w_rows, u)
    return rows


def _transversal(rows, echelon=None) -> bool:
    """Whether the Z[i] rows and their conjugates are independent, also of ``echelon``.

    A given ``echelon`` (`kernel.zi_insert`) keeps the rows inserted, up to
    the first that is dependent.
    """
    echelon = [] if echelon is None else echelon
    return all(
        kernel.zi_insert(echelon, row) and kernel.zi_insert(echelon, kernel.zi_conj(row))
        for row in rows
    )


def _minimal_degree(w_rows, h: int) -> int:
    """The degree of the minimal polynomial of W, capped at h.

    It is the rank of I, W, W^2, ... flattened to rows of length v^2: the
    first power in the span of the lower ones gives the degree, and every
    higher power lies in that span too.  No Krylov span u, Wu, W^2 u, ...
    is longer, as p(W) u = 0 for the minimal polynomial p.  The cap is all
    that `_regular_pencil_u` asks for, and it loses nothing: W = M_g^{-1} M_o
    is self-adjoint for the symplectic form M_g, so each of its Jordan
    blocks occurs twice and the degree is at most h = v / 2.  ``w_rows``
    are the Z[i] rows of W times a denominator, which leaves the rank alone.
    """
    v = len(w_rows)
    identity = [{r: (1, 0)} for r in range(v)]
    powers = islice(chain([identity], accumulate(repeat(w_rows), kernel.zi_matmul)), h)
    echelon: list = []
    for degree, power in enumerate(powers):
        flat = {r * v + c: e for r, row in enumerate(power) for c, e in row.items()}
        if not kernel.zi_insert(echelon, flat):
            return degree
    return h


def _group_terms(grp) -> list[kernel.ZiRow]:
    """Transverse vectors from the basis ``grp`` (2+ rows) of a generalized eigenspace."""
    one = (1, 0)
    terms = []
    if len(grp) > 2:
        # generic vectors reaching the top of each Jordan chain
        total = kernel.zi_combine(*((one, x) for x in grp))
        terms.append(kernel.zi_combine((one, total), ((0, 1), grp[1])))
        terms.append(kernel.zi_combine((one, grp[0]), ((0, 1), total)))
    for a, b, s in ((0, 1, 1), (1, 0, 1), (0, 1, -1), (1, 0, -1)):
        terms.append(kernel.zi_combine((one, grp[a]), ((0, s), grp[b])))
    return terms


def _pencil_candidates(seeds, w_rows):
    """Candidate cyclic vectors of W as ``(row, den)``, in the order they are tried.

    First, when there are two or more seed groups and the generalized
    eigenspace of each has two or more basis vectors, sums of one transverse
    vector from each (48 at most); then x + i*y for any two distinct vectors
    of the pool: the unit vectors, then the seeds.  Both are generated
    lazily.
    """
    v = len(w_rows)
    one = (1, 0)
    # One transverse component per root of the pencil, drawn from the full
    # generalized eigenspace: the Krylov span of such a sum reaches every
    # Jordan chain, and kernel vectors alone would miss nilpotent parts.
    gen_groups = []
    for grp in seeds:
        k_row = grp[0][0]
        lead = min(k_row)
        # W - t*I times d*k0, for the eigenvalue t = wk / (d*k0) of W on k
        wk, k0 = kernel.zi_matvec(w_rows, k_row).get(lead, (0, 0))[0], k_row[lead][0]
        shifted = [
            kernel.zi_combine(((k0, 0), row), ((-wk, 0), {r: (1, 0)}))
            for r, row in enumerate(w_rows)
        ]
        power = shifted
        for _ in range(v // 2 - 1):
            power = kernel.zi_matmul(power, shifted)
        gen = kernel.null_space(power, v, "Qi")
        gen_groups.append(gen if len(gen) >= len(grp) else grp)
    if len(gen_groups) >= 2 and all(len(g) >= 2 for g in gen_groups):
        rows, den = kernel.zi_common([vec for grp in gen_groups for vec in grp])
        it = iter(rows)
        pools = [_group_terms([next(it) for _ in grp]) for grp in gen_groups]
        for terms in islice(product(*pools), 48):
            yield kernel.zi_combine(*((one, t) for t in terms)), den
    # Generic vectors next: they are cyclic whenever anything is.
    pool = _unit_vectors(v)
    for grp in seeds:
        for vec in grp:
            if vec not in pool:
                pool.append(vec)
    rows, den = kernel.zi_common(pool)
    for a, x in enumerate(rows):
        for b, y in enumerate(rows):
            if a != b:
                yield kernel.zi_combine((one, x), ((0, 1), y)), den


def _completions(pool):
    """Completion vectors from the Z[i] rows ``pool``, in the order they are tried."""
    mixers = ((0, 1), (0, -1), (0, 2), (1, 1), (1, -1))
    for a, x in enumerate(pool):
        for b, y in enumerate(pool):
            if a != b:
                for m in mixers:
                    yield kernel.zi_combine(((1, 0), x), (m, y))
        yield x


def _regular_pencil_u(frame: _TwoStepFrame, seeds, w):
    """Direct construction of U for a regular two-form pencil.

    The operator W = M_g^{-1} M_o satisfies beta_g(u, Wv) = -beta_g(v, Wu),
    so W-cyclic subspaces commute for every member of the pencil.  A cyclic
    vector of minimal-polynomial degree h yields U directly; when the cyclic
    depth falls one short, the last generator is completed from the exact
    commutant intersected with the eigenvector seeds.  Both are isotropic by
    construction, so only transversality to the conjugate is tested.

    Up to 200 candidates (`_pencil_candidates`) are tried in order; the
    first whose span has h rows and is transverse gives U, and the first 16
    spans of h - 1 rows are completed in order, each by up to 200 vectors.
    Work whose outcome is decided is skipped, so U is the same:

    * No span is longer than the degree of W's minimal polynomial, which is
      at most h.  A first span of h rows proves the degree h; otherwise it
      is computed (`_minimal_degree`).  Below h - 1 there is neither a span
      of h rows nor one of h - 1, and the stage returns None at once.  At
      h - 1 no span has h rows, so the later spans are formed only as the
      completions ask for them, the same first 16 of h - 1 rows.
    * A span is completed by w when its rows, w and their conjugates are
      independent.  Its rows and their conjugates are reduced once: when
      they are dependent, no w can complete it and it is skipped before
      its commutant is taken; otherwise each w is tested on a copy of
      their echelon.

    ``seeds`` and ``w`` are as `_pencil_structure` returns them.  U is
    returned as exact vectors ``(row, den)``: the k-th Krylov row of u / den
    is W^k u times d^k, so its denominator is den * d^k.
    """
    v, h = frame.v, frame.h
    w_rows, d = w

    def exact(rows, den):
        return [(row, den * d**k) for k, row in enumerate(rows)]

    spans = (
        (_krylov_span(w_rows, u), den)
        for u, den in islice(_pencil_candidates(seeds, w_rows), 200)
    )
    first = list(islice(spans, 1))
    degree = h if first and len(first[0][0]) == h else _minimal_degree(w_rows, h)
    if degree < h - 1:
        return None
    spans = chain(first, spans)
    if degree < h:
        partials = islice(((rows, den) for rows, den in spans if len(rows) == h - 1), 16)
    else:
        partials = []
        for rows, den in spans:
            if len(rows) == h:
                if _transversal(rows):
                    return exact(rows, den)
            elif len(rows) == h - 1 and len(partials) < 16:
                partials.append((rows, den))
    # span(grp) is the null space of its annihilator's rows.
    constraints = [
        [row for row, _ in kernel.null_space([row for row, _ in grp], v, "Qi")]
        for grp in seeds
    ]
    constraints.append(w_rows)
    for rows, den in partials:
        prefix: list = []
        if not _transversal(rows, prefix):
            continue
        # Complete with an eigenvector from the exact commutant of the
        # cyclic part (W fixes its line, so invariance is preserved): the
        # commutant met with each seed group's span, then with ker W.
        commutant = frame.commutant_rows(rows)
        eigen_pool: list[tuple[kernel.ZiRow, int]] = []
        for extra in constraints:
            for vec in kernel.null_space(commutant + extra, v, "Qi"):
                if vec not in eigen_pool:
                    eigen_pool.append(vec)
        pool_rows, pool_den = kernel.zi_common(eigen_pool)
        for w in islice(_completions(pool_rows), 200):
            if w and _transversal([w], list(prefix)):
                return exact(rows, den) + [(w, pool_den)]
    return None


def _dfs_u(frame: _TwoStepFrame, groups, w):
    """Depth-first search for h commuting generators transverse to conjugates.

    The commutation constraints against already-chosen generators are linear,
    so each level enumerates bounded combinations of exactly computed
    constraint spaces.  Candidates are drawn first from intersections with
    covariant invariant subspaces (degenerate pencil-member kernels and
    kernels/images of powers of the pencil operator), which keeps the search
    effective under arbitrary rational changes of basis.  Since every later
    generator must commute with every earlier one, the whole subspace U lies
    inside each constraint space, so branches whose constraint space drops
    below dimension h are pruned.

    ``groups`` are groups of seeds and ``w`` the pencil operator or None, as
    `_pencil_structure` returns them; with no pencil, `_generic_seeds` and
    None.  Every vector is an exact vector, and every subspace is kept as
    its reduced basis.  A child's constraints are its parent's and those of
    its last generator.  So a node inherits its parent's constraint space,
    the meets of that space with each invariant subspace and the seeds that
    satisfy its parent's constraints, and cuts each with the new rows only
    (`kernel.null_space_within`, which gives the same reduced basis as the
    null space of all the rows); the root's spaces are V and the invariant
    subspaces, and every seed is alive there.  New rows that vanish on the
    constraint space vanish on each meet and seed too, so such a node keeps
    all it inherits.

    A candidate is a bounded combination of a node's pool rows, tested on
    the combination of their residuals modulo the generators chosen and
    their conjugates.  The residuals of the pool rows are computed once per
    node, and those of their conjugates only when a candidate that could
    pass first names the row.  The candidates come in blocks, one per pool
    row, pair and triple (`_candidate_blocks`); every candidate of a block
    names the same rows.  When all of them have zero residuals, the block
    spends its size off the budget, stopping where the budget does, with one
    `RowReducer.add` on the empty row per candidate on one shared empty
    reducer, and no candidate of it is listed.  The others are listed
    (`_block_terms`), and each is tested directly: its combined residuals
    r1 and r2, of the candidate and of its conjugate, must span a plane
    (`kernel.zi_plane`), which forms no echelon and divides out no content.
    Only a candidate that passes is formed.  Each listed candidate makes
    the `add` calls that a fresh reducer of r1 and r2 would take, on the
    same shared empty reducer: one, and a second when r1 is not zero.  So
    the count of those calls, which perfbench reads as the nodes searched,
    is the same as when every candidate was tested on a reducer of its
    own.  U is returned as the exact vectors chosen.
    """
    v, h, bounds = frame.v, frame.h, frame.bounds
    seeds = [vec for grp in groups for vec in grp]
    spans = [[row for row, _ in grp] for grp in groups]
    if w is not None:
        w_rows, d = w
        for power in accumulate(repeat(w_rows, h), kernel.zi_matmul):
            # The kernel of W^k, and its image, spanned by its columns, k = 1 .. h.
            columns = [
                {r: row[j] for r, row in enumerate(power) if j in row} for j in range(v)
            ]
            spans += [[row for row, _ in kernel.null_space(power, v, "Qi")], columns]
        orbit: list[tuple[kernel.ZiRow, int]] = []
        for row, den in seeds + _unit_vectors(v):
            for _ in range(h - 1):
                row = kernel.zi_matvec(w_rows, row)
                if not row:
                    break
                row, den = vec = kernel.zi_lowest(row, den * d)
                if vec not in orbit and vec not in seeds:
                    orbit.append(vec)
        seeds = seeds + orbit[: 4 * v]
    # Each invariant subspace S with 0 < dim S < v, once, as its reduced
    # basis: equal subspaces have equal reduced bases.
    invariants: list[list[tuple[kernel.ZiRow, int]]] = []
    for rows in spans:
        basis = kernel.span(rows, v, "Qi")
        if 0 < len(basis) < v and basis not in invariants:
            invariants.append(basis)
    # Small invariant subspaces are the strongest anchors: any commuting
    # family is forced to meet the pencil radical, so explore those first.
    invariants = sorted(invariants, key=len)[:8]
    budget = [bounds.max_nodes]
    coeffs = [c for c in bounds.coefficients if c]

    # Every candidate makes its `add`s on the empty row, which leaves this
    # reducer empty.
    add_empty = RowReducer(v).add
    no_row: kernel.ZiRow = {}

    def rec(chosen, red: RowReducer, constraints, spaces, alive, new):
        # ``chosen`` holds the generators as ``(row, den)``, and ``red`` them
        # and their conjugates, spanning S.  The node inherits its parent's
        # commutation ``constraints``, ``spaces`` (their null space, then its
        # meets with each invariant subspace) and the seeds ``alive`` that
        # satisfy them; the rows ``new`` of the last generator cut all three.
        # A candidate u is independent of the generators when rho(u) and
        # rho(conj u) span a plane, for the linear reduction rho modulo S
        # (`kernel.zi_residual`); `kernel.zi_plane` tests that on the two
        # combined residuals, with no reducer.  perfbench counts the `add`s
        # on the empty row as the nodes searched.
        if len(chosen) == h:
            return chosen
        space = kernel.null_space_within(spaces[0], new, "Qi")
        if len(space) < h:
            return None
        if space is not spaces[0]:
            # Every meet and every seed alive lies in the parent's space,
            # so new rows that vanish on it keep them all.
            spaces = [space] + [kernel.null_space_within(meet, new, "Qi") for meet in spaces[1:]]
            alive = [vec for vec in alive if not kernel.zi_matvec(new, vec[0])]
        constraints = constraints + new
        rows, den = _complex_pool(w, constraints, space, spaces[1:], chosen, alive)
        res = [kernel.zi_residual(row, red.rows) for row in rows]
        res_conj: list = [None] * len(rows)
        live = {i for i, r in enumerate(res) if r}
        for block, size in _candidate_blocks(len(rows), bounds.depth, len(coeffs)):
            if live.isdisjoint(block):
                taken = min(size, budget[0])
                budget[0] -= taken
                for _ in repeat(None, taken):
                    add_empty(no_row)
                if taken < size:
                    return None
                continue
            for i in block:
                if res_conj[i] is None:
                    res_conj[i] = kernel.zi_residual(kernel.zi_conj(rows[i]), red.rows)
            for terms in _block_terms(block, coeffs):
                if budget[0] <= 0:
                    return None
                budget[0] -= 1
                # The calls that a reducer of rho(u) and rho(conj u) would take:
                # one, and a second when rho(u) is not zero.
                add_empty(no_row)
                first = kernel.zi_combine(*[(c, res[i]) for c, i in terms])
                if not first:
                    continue
                add_empty(no_row)
                second = kernel.zi_combine(*[((cr, -ci), res_conj[i]) for (cr, ci), i in terms])
                if not kernel.zi_plane(first, second):
                    continue
                cand = kernel.zi_combine(*((c, rows[i]) for c, i in terms))
                grown = red.copy()
                grown.add(cand)
                grown.add(kernel.zi_conj(cand))
                result = rec(
                    chosen + [(cand, den)], grown, constraints, spaces, alive,
                    frame.commutant_rows([cand]),
                )
                if result is not None:
                    return result
        return None

    # The root's constraint space is all of V, its meets the invariant
    # subspaces themselves, and every seed satisfies its (no) constraints.
    return rec([], RowReducer(v), [], [_unit_vectors(v)] + invariants, seeds, [])


def _complex_pool(w, constraints, space, meets, chosen, alive):
    """The pool of a depth-first search node as Z[i] rows over one denominator ``(rows, den)``.

    In order, without repeats: the images under the pencil operator ``w``
    (``(rows, den)`` or None) of the generators ``chosen`` that satisfy the
    node's ``constraints``, the vectors of each meet that is neither 0 nor
    the whole ``space``, the seeds ``alive`` that satisfy the constraints,
    and the reduced basis of ``space``.
    """
    pool: list[tuple[kernel.ZiRow, int]] = []

    def push(vec):
        if vec not in pool:
            pool.append(vec)

    if w is not None:
        w_rows, d = w
        for row, den in chosen:
            img = kernel.zi_matvec(w_rows, row)
            if img and not kernel.zi_matvec(constraints, img):
                push(kernel.zi_lowest(img, den * d))
    for meet in meets:
        if 0 < len(meet) < len(space):
            for vec in meet:
                push(vec)
    for vec in alive:
        push(vec)
    for vec in space:
        push(vec)
    return kernel.zi_common(pool)


def _candidate_blocks(n: int, depth: int, k: int):
    """The blocks of the search's candidates over a pool of ``n`` rows, in the search order.

    Yields each block as the tuple of pool indices that its candidates
    combine and its size, for ``k`` nonzero coefficients: each index alone
    (one candidate), then at depth >= 2 each ordered pair of distinct
    indices (2k), then at depth >= 3 each increasing triple (2k^2).
    `_block_terms` lists the candidates of a block, and the blocks'
    candidates in turn are every candidate of the search, in its order.
    """
    for a in range(n):
        yield (a,), 1
    if depth >= 2:
        for block in permutations(range(n), 2):
            yield block, 2 * k
    if depth >= 3:
        for block in combinations(range(n), 3):
            yield block, 2 * k * k


def _block_terms(block: tuple[int, ...], coeffs) -> list[tuple]:
    """The candidates of one block, in the search order, for the nonzero integers ``coeffs``.

    Each is its terms ``(c, index)``, the sum of ``c`` times pool row
    ``index`` with ``c = (re, im)`` in Z[i]: row a alone; a plus c or ic
    times b; a plus ic_b times b plus c_c or ic_c times c.
    """
    one = (1, 0)
    if len(block) == 1:
        return [((one, block[0]),)]
    if len(block) == 2:
        a, b = block
        return [((one, a), (c, b)) for cc in coeffs for c in ((cc, 0), (0, cc))]
    a, b, c = block
    return [
        ((one, a), ((0, c_b), b), (cc, c))
        for c_b in coeffs
        for c_c in coeffs
        for cc in ((c_c, 0), (0, c_c))
    ]


# The search's constructions as (name, applies, run) in the order they are
# tried (see the module docstring), each reading the frame; ``run`` returns U
# as exact vectors, or None.  A singular pencil's seeded depth-first search
# over the members' kernels is cheap and robust, and after it `dfs` does not run.
_STAGES = (
    ("trivial", lambda f: f.v == 0, lambda f: []),
    ("darboux", lambda f: f.c1.dim == 1, _darboux_u),
    ("regular_pencil", _TwoStepFrame.regular, lambda f: _regular_pencil_u(f, *f.pencil)),
    ("singular_pencil_dfs", lambda f: f.c1.dim == 2 and not f.regular(),
     lambda f: _dfs_u(f, *f.pencil)),
    ("jspace", lambda f: f.c1.dim >= 2, _jspace_u),
    ("dfs", lambda f: f.c1.dim >= 3 or f.regular(), lambda f: _dfs_u(f, *f.dfs_seeds())),
)


def search_bigrading(
    L: LieAlgebra, bounds: SearchBounds | None = None
) -> SearchOutcome:
    """Bounded search for a restricted-shape mixed-structure bigrading."""
    bounds = bounds or SearchBounds()
    R, t_real = _realified(L)
    series = lower_central_series(R)
    if series.nilpotency_class > 2:
        return SearchOutcome(
            status="obstructed",
            reason="nilpotency_class",
            witness={"nilpotency_class": series.nilpotency_class},
            bounds=bounds,
        )
    frame = _TwoStepFrame(R, bounds)
    # For class <= 2 the commutator sits inside the center, so the canonical
    # core has b1 = dim - dim Z and the abelian factor has dim Z - dim C1.
    b1_core = frame.v
    k = frame.z.dim - frame.c1.dim
    necessary = {
        "nilpotency_class": series.nilpotency_class,
        "abelian_factor": k,
        "b1_core": b1_core,
    }
    if b1_core % 2 == 1:
        return SearchOutcome(
            status="obstructed",
            reason="b1_parity",
            witness=necessary,
            bounds=bounds,
        )
    u_gens = next(
        (u for _, applies, run in _STAGES if applies(frame) and (u := run(frame)) is not None),
        None,
    )
    if u_gens is None:
        return SearchOutcome(
            status="not_found_within_bounds", witness=necessary, bounds=bounds
        )
    # U's exact vectors lifted from V to R and, over Q(i), to L as the
    # combination of T_real's rows with their entries.  Over Q, R is L, and
    # Z(L) the frame's Z(R).
    u = [({frame.free[a]: e for a, e in row.items()}, den) for row, den in u_gens]
    z = center(L)
    if t_real is not None:
        t_rows, t_den = t_real
        u = [
            (kernel.zi_combine(*((e, t_rows[k]) for k, e in row.items())), den * t_den)
            for row, den in u
        ]
    conj, s_den = _conjugation(L)
    ubar = [(conj(row), den * s_den) for row, den in u]
    comps, rows = [], {}
    for key, vecs in (((-1, 0), u), ((0, -1), ubar)):
        if vecs:
            comps.append((*key, [kernel.decode(row, den, L.dim, "Qi") for row, den in vecs]))
            rows[key] = [row for row, _ in vecs]
    if z.dim:
        comps.append((-1, -1, z.vectors()))
        rows[-1, -1] = [row for row, _ in z.rows]
    grading = Bigrading.build(comps)
    report = _verify_rows(L, grading, rows, "strict")
    if not report.valid:
        return SearchOutcome(
            status="not_found_within_bounds", witness=necessary, bounds=bounds
        )
    return SearchOutcome(
        status="found",
        witness=necessary,
        bigrading=grading,
        report=report,
        bounds=bounds,
    )
