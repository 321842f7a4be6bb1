"""Bigradings of complexified nilpotent Lie algebras.

A bigrading (`nilqp.grading`, re-exported here) assigns basis vectors to
integer bidegrees (p, q) with p, q <= 0 and p + q <= -1.  Verification checks
four things: the generators span as a direct sum, the bracket is additive on
bidegrees, conjugation exchanges (p, q) and (q, p) (exactly, or modulo lower
total weight), and the induced bigraded cohomology in degree j is supported in
I_j = {j <= p+q <= 2j, 0 <= p,q <= j}.

The same data can be packaged as a pair of filtrations (increasing weight W,
decreasing F) and recovered from them by the standard splitting formula; both
directions are implemented and round-trip on every stored grading.

The bounded search looks for a restricted-shape grading

    g = U + conj(U) + Z(g),   [U, U] = 0,  U + conj(U) a complement of Z

by exact linear algebra on the rational form R and the quotient V = R / Z.
Over Q, R is the algebra itself, whose constants are all `Rational`; over
Q(i) it is read off the table in a basis of the fixed space of conjugation.
The stages read V's two-step structure, its forms, pencil and Darboux
pairs, from `nilqp.twostep`.  The constructions are one ordered table of
named stages (`_STAGES`); each stage that applies runs in turn, and the
first to return U wins:

1. trivial: when v = dim V = 0, U = 0.
2. darboux: when C^1 is a line, a symplectic basis of its form.
3. regular_pencil (`nilqp.pencil`): when dim C^1 = 2 and a member of the
   pencil of the two forms is invertible, cyclic subspaces of the pencil
   operator.
4. singular_pencil_dfs (`nilqp.dfs`): when dim C^1 = 2 and every member
   is degenerate, a depth-first search seeded with the members' kernels.
5. jspace (`nilqp.jspace`): when dim C^1 >= 2, a complex structure J on V
   compatible with every form, which gives U = {x - iJx}.
6. dfs (`nilqp.dfs`): when dim C^1 >= 3, or the pencil is regular, a
   depth-first search over the exactly solved commutation constraint
   spaces.

Every construction but darboux's is a module of its own that reads
nothing of this one.

Every hit is re-verified before being returned; exhaustion yields
NotFoundWithinBounds, never a nonexistence claim.

Verification and every construction run on integers: the forms are
read as integers off `liealg.structure_table`, a vector is an exact vector
``(row, den)`` on the kernel's Z[i] rows, spans and memberships are read
off echelons (`kernel.zi_insert`/`kernel.zi_reduce`), subspaces and their
meets are null spaces (`kernel.null_space`, or `kernel.null_space_within`
where a subspace is cut by more rows).  Verification reads a grading's
rank and brackets from the one pass that `bigraded_cohomology`'s table
reads (`cohomology._graded_solutions`): the generators ranked on one
echelon, then each pair formed once on the same table and solved in its
target component, on one echelon per component.  It tests each generator
that must be central once (`liealg._is_central`) instead of pair by pair.
On a real table, a pair of generators whose rows are the conjugates of a
pair bracketed before, up to sign, takes that bracket's conjugate up to
sign (`liealg._pair_brackets`), so the search's U and conj U cost h^2
brackets, not h(2h - 1).  A component whose
conjugated rows are its mirror's rows passes the conjugation check without
elimination.  Each construction returns U as exact vectors; the search lifts them,
conjugates them (`_conjugation`), and hands them with the center's
reduced basis to the `Bigrading` it verifies, as they are: a grading
keeps its generators as such rows (`nilqp.grading`).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial
from typing import NamedTuple

from .cohomology import _graded_cohomology, _graded_solutions, _solved_table
from .errors import (
    AmbientMismatch,
    GradingNotCompatible,
    InputError,
    MissingRealStructure,
    NotAFiltration,
)
from . import dfs, jspace, kernel, pencil, twostep
from ._record import Record
from .exact import ExactMatrix, Subspace, _conjugate_row
from .grading import Bigrading, BigradingComponent
from .liealg import (
    LieAlgebra,
    _moved_table,
    _real_form,
    center,
    lower_central_series,
    real_structure_rows,
)

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


class GradingReport(NamedTuple):
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
    # `verify_bigrading` passes a list; a NamedTuple's default is one object
    # shared by every record, so it is an empty tuple.
    failures: Sequence[dict] = ()

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

    It reads the grading's stored rows (`Bigrading.bidegree_rows`), each at
    its own scale: spans and containments do not depend on scale and are
    read off echelons (`kernel.zi_insert`/`kernel.zi_reduce`).  The spans
    test and the brackets come from `cohomology._graded_solutions`, the one
    pass that the grading table reads too: it ranks the generators on one
    echelon, lowest weight first, and when they span, brackets each live
    pair once and solves it in its target component; a bracket with no
    solution is a failure.  The generators of a component whose every
    pairing targets an absent bidegree, such as the restricted shape's
    (-1, -1), are first tested once on the table
    (`cohomology._central_generators`), and the pairs of one that passes
    are skipped: its bracket is zero.  On a real table, a pair whose rows
    are the conjugates of a pair bracketed before takes the conjugate of
    that bracket.  So the failures, their order and the report are those
    of bracketing every pair.  A general shape's support check ranks the
    table written from the same solutions (`cohomology._solved_table`).  A
    component whose conjugated generators, in lowest terms, are its
    mirror's stored ones passes the conjugation check without elimination.
    The tests read the table alone, never the center or C^1 computed from
    it, which verification must not lean on.
    """
    if mode not in ("strict", "lax"):
        raise ValueError(f"mode must be 'strict' or 'lax', not {mode!r}")
    if L.field == "Qi" and L.real_rows is None:
        raise MissingRealStructure(f"{L.name}: conjugation checks need a real structure")
    n = L.dim
    rows = g.bidegree_rows(n)
    failures: list = []
    rank, solved, misses = None, {}, []
    if g.total_generators == n:
        rank, solved, misses = _graded_solutions(L, rows)
    spans = rank == n
    if not spans:
        detail = f"{g.total_generators} generators of rank {'n/a' if rank is None else rank}"
        failures.append({"check": "spans", "detail": f"{detail} in dimension {n}"})
    for (p, q), (a, b), target in misses:
        if target not in rows:
            detail = f"[{p},{q}] x [{a},{b}] hits absent bidegree {target}"
        else:
            detail = f"bracket of ({p},{q}) and ({a},{b}) generators leaves the {target} component"
        failures.append({"check": "bracket", "detail": detail})
    bracket_ok = not misses

    conjugation = "fails"
    if spans:
        conj, s_den = _conjugation(L)
        exact_all = True
        lax_all = True
        for c in g.components:
            # conj(row / den) is conj(row) / (den * s_den); in lowest terms
            # equal vectors are equal pairs.
            images = tuple(kernel.zi_lowest(conj(row), den * s_den) for row, den in c.rows)
            mirror_c = g.component(c.q, c.p)
            if mirror_c is not None and images == mirror_c.rows:
                continue
            img = [row for row, _ in images]
            mirror_rows = rows.get((c.q, c.p), [])
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
        table = _graded_cohomology(n, *_solved_table(L, rows, solved))
        for (j, p, q, d) in table.by_bidegree:
            at = f"H^{j} has dimension {d} at ({p},{q}) outside the"
            if not j <= p + q <= 2 * j:
                support_ok = False
                failures.append({"check": "support", "detail": f"{at} weight band [{j}, {2 * j}]"})
            elif not (0 <= p <= j and 0 <= q <= j):
                box_ok = False
                failures.append({"check": "support_box", "detail": f"{at} box 0 <= p, q <= {j}"})
    elif spans and not bracket_ok:
        failures.append({"check": "support", "detail": "skipped: bracket incompatible"})

    shape = "restricted" if g.is_restricted_shape() else "general"
    return GradingReport(
        mode=mode, spans=spans, bracket_compatible=bracket_ok, conjugation=conjugation, shape=shape,
        cohomology_support_ok=support_ok, support_box_ok=box_ok, failures=failures,
    )


def _conjugation(L: LieAlgebra):
    """``(conj, den)``: x -> den * S conj(x) on Z[i] rows, S = L's real structure.

    Without a real structure, as over Q, S is the identity and conjugation
    is entrywise (`kernel.zi_conj`, ``den`` 1); otherwise it runs on
    `liealg.real_structure_rows`.
    """
    if L.real_rows is None:
        return kernel.zi_conj, 1
    s_rows, s_den = real_structure_rows(L)
    return partial(_conjugate_row, s_rows), s_den


# -- filtrations -------------------------------------------------------------


class FiltrationPair(NamedTuple):
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
    """W_k = sum of components with p + q <= k; F^p = sum with first index >= p, of stored rows."""
    n = g.ambient_dim
    if n == 0:
        raise GradingNotCompatible("empty bigrading has no ambient space")

    def span(comps) -> Subspace:
        field = "Qi" if any(c.field == "Qi" for c in comps) else "Q"
        return Subspace._span([row for c in comps for row in c.checked_rows(n)], n, field)

    weights = sorted({c.p + c.q for c in g.components})
    ps = sorted({c.p for c in g.components})
    weight: dict[int, Subspace] = {}
    lo = weights[0]
    for k in range(lo - 1, 1):
        weight[k] = span([c for c in g.components if c.p + c.q <= k])
        if weight[k].dim == n:
            break
    hodge: dict[int, Subspace] = {}
    for p in range(ps[0], 1):
        hodge[p] = span([c for c in g.components if c.p >= p])
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
    s_rows, _ = kernel.zi_common(real_structure.exact_rows)
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
            comps.append((p, q, n, v_pq.field, v_pq.rows))
    return Bigrading._from_rows(comps)


# -- bounded search ----------------------------------------------------------


class SearchBounds(Record):
    """The depth-first stages' candidate coefficients, combination depth and node budget."""

    _fields = ("coefficients", "depth", "max_nodes")

    def __init__(
        self, coefficients: tuple[int, ...] = (-1, 0, 1), depth: int = 2, max_nodes: int = 20000
    ):
        if any(type(c) is not int for c in coefficients):
            raise InputError(f"search bounds: coefficients must be ints, got {coefficients!r}")
        for name, value in (("depth", depth), ("max_nodes", max_nodes)):
            if type(value) is not int:
                raise InputError(f"search bounds: {name} must be an int, got {value!r}")
        if not 1 <= depth <= 3:
            # The depth-first search combines at most three pool vectors.
            raise InputError(f"search depth must be 1, 2 or 3, got {depth}")
        if max_nodes < 1:
            raise InputError(f"search node budget must be >= 1, got {max_nodes}")
        self._store(coefficients, depth, max_nodes)


class SearchOutcome(NamedTuple):
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
    if L.real_rows is None:
        raise MissingRealStructure(f"{L.name}: conjugation checks need a real structure")
    t_real = _real_form_basis(L)
    table, _, _ = _moved_table(L, *t_real, "Qi")
    R = _real_form(f"{L.name}.real", table, tuple(f"e{i + 1}" for i in range(L.dim)))
    if R is None:
        raise MissingRealStructure(f"{L.name}: rational form has non-real constants")
    return R, t_real


def _darboux_u(frame: twostep._TwoStepFrame) -> list[tuple[kernel.ZiRow, int]]:
    """U generators for a one-dimensional commutator ideal (symplectic case).

    ``frame.c1`` must be a line: the search calls it only then.  U is
    returned as the exact vectors x - iy for the Darboux pairs (x, y) of
    the one form (`twostep._darboux_pairs`).
    """
    return [
        kernel.zi_lowest(kernel.zi_combine(((yd, 0), x), ((0, -xd), y)), xd * yd)
        for x, xd, y, yd in twostep._darboux_pairs(frame)
    ]


# The search's constructions as (name, applies, run) in the order they are
# tried (see the module docstring): ``applies`` reads the frame, and ``run``
# the frame and the search's bounds, and returns U as exact vectors, or None.
# A singular pencil's seeded depth-first search over the members' kernels is
# cheap and robust, and after it `dfs` does not run.
_STAGES = (
    ("trivial", lambda f: f.v == 0, lambda f, b: []),
    ("darboux", lambda f: f.c1.dim == 1, lambda f, b: _darboux_u(f)),
    ("regular_pencil", twostep._TwoStepFrame.regular,
     lambda f, b: pencil._regular_pencil_u(f, *f.pencil)),
    ("singular_pencil_dfs", lambda f: f.c1.dim == 2 and not f.regular(),
     lambda f, b: dfs._dfs_u(f, *f.pencil, b)),
    ("jspace", lambda f: f.c1.dim >= 2, lambda f, b: jspace._jspace_u(f)),
    ("dfs", lambda f: f.c1.dim >= 3 or f.regular(),
     lambda f, b: dfs._dfs_u(
         f, *(f.pencil if f.c1.dim == 2 else (dfs._generic_seeds(f), None)), b)),
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
    frame = twostep._TwoStepFrame(R)
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
    runs = (run(frame, bounds) for _, applies, run in _STAGES if applies(frame))
    u_gens = next((u for u in runs if u is not None), None)
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
    n = L.dim
    grading = Bigrading._from_rows(
        ((-1, 0, n, "Qi", u), (0, -1, n, "Qi", ubar), (-1, -1, n, z.field, z.rows))
    )
    report = verify_bigrading(L, grading, "strict")
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
