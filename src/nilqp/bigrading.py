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
The bracket of V is read once, as one alternating form on V per basis
vector of the commutator ideal C^1 (`_TwoStepFrame`), and five
constructions work on these forms, tried in this order:

1. Darboux: when C^1 is a line, a symplectic basis of its form.
2. Regular pencil: when dim C^1 = 2 and a member of the pencil of the two
   forms is invertible, cyclic subspaces of the pencil operator.
3. Singular-pencil DFS: when dim C^1 = 2 and every member is degenerate, a
   depth-first search seeded with the members' kernels.
4. J-space: when dim C^1 >= 2, a complex structure J on V compatible with
   every form (Salamon, J. Pure Appl. Algebra 157 (2001) 311-333), which
   gives U = {x - iJx}.
5. Generic DFS: unless a DFS has run, a depth-first search over the
   exactly solved commutation constraint spaces.

Every hit is re-verified before being returned; exhaustion yields
NotFoundWithinBounds, never a nonexistence claim.

Verification, the regular pencil and both depth-first searches run on the
kernel's Z[i] rows: the forms are read as integers off
`liealg.structure_table`, a vector is an exact vector ``(row, den)``,
spans and memberships are read off echelons (`kernel.zi_insert`/
`kernel.zi_reduce`), subspaces and their meets are null spaces
(`kernel.null_space`), and verification brackets on the same table.
Scalars appear only in the U these constructions return.  Darboux and the
J-space construction work on scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice, product
from math import gcd, isqrt

from ._arith import solve_ternary
from .cohomology import bigraded_cohomology
from .errors import (
    AmbientMismatch,
    GradingNotCompatible,
    MissingRealStructure,
    NotAFiltration,
)
from . import kernel
from .exact import ExactMatrix, RowReducer, Subspace, Vector
from .liealg import (
    LieAlgebra,
    _bracket_qi,
    apply_basis_change,
    center,
    commutator_ideal,
    complexify,
    lower_central_series,
    structure_table,
)
from .scalars import Gaussian, Q0, Q1, Rational, Scalar, as_scalar, conj

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
            gen_vecs = tuple(tuple(as_scalar(x) for x in g) for g in gens)
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


def _complex_carrier(L: LieAlgebra) -> LieAlgebra:
    """The algebra a grading lives on: L itself over Q(i), else complexified."""
    if L.field == "Qi":
        if L.real_structure is None:
            raise MissingRealStructure(
                f"{L.name}: conjugation checks need a real structure"
            )
        return L
    return complexify(L)


def verify_bigrading(L: LieAlgebra, g: Bigrading, mode: str = "strict") -> GradingReport:
    """Check all bigrading axioms; failures are reported, not raised."""
    if mode not in ("strict", "lax"):
        raise ValueError(f"mode must be 'strict' or 'lax', not {mode!r}")
    return _verify_on_carrier(_complex_carrier(L), g, mode)


def _verify_on_carrier(Lc: LieAlgebra, g: Bigrading, mode: str) -> GradingReport:
    """`verify_bigrading` on the grading's carrier ``Lc`` (see `_complex_carrier`).

    Each generator is encoded once as a Z[i] row (`kernel.zi_row`).  Spans,
    memberships and containments do not depend on scale and are read off
    echelons (`kernel.zi_insert`/`kernel.zi_reduce`); brackets are formed
    on `structure_table`, and conjugation is the conjugate row times the
    real structure S, skipped when S is the identity.
    """
    n = Lc.dim
    failures: list = []

    for c in g.components:
        for v in c.generators:
            if len(v) != n:
                raise AmbientMismatch(
                    f"vector of length {len(v)} in ambient dimension {n}"
                )
    rows = {
        (c.p, c.q): [kernel.zi_row(v) for v in c.generators] for c in g.components
    }
    echelons = {}
    for key, comp_rows in rows.items():
        echelon: list = []
        for row in comp_rows:
            kernel.zi_insert(echelon, row)
        echelons[key] = echelon

    rank = None
    if g.total_generators == n:
        span: list = []
        rank = sum(
            kernel.zi_insert(span, row) for comp_rows in rows.values() for row in comp_rows
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
    if spans:
        _, _, columns = structure_table(Lc)
        zero = (0, 0)
        dense = {
            key: [[row.get(j, zero) for j in range(n)] for row in comp_rows]
            for key, comp_rows in rows.items()
        }
        comps = list(g.components)
        for a in range(len(comps)):
            for b in range(a, len(comps)):
                ca, cb = comps[a], comps[b]
                target = (ca.p + cb.p, ca.q + cb.q)
                tspace = echelons.get(target)
                ua, ub = dense[ca.p, ca.q], dense[cb.p, cb.q]
                pairs = (
                    combinations(ua, 2)
                    if a == b
                    else ((u, v) for u in ua for v in ub)
                )
                for u, v in pairs:
                    w = {
                        k: (x, y)
                        for k, (x, y) in enumerate(zip(*_bracket_qi(columns, u, v, n)))
                        if x or y
                    }
                    if not w:
                        continue
                    if tspace is None:
                        bracket_ok = False
                        failures.append(
                            {
                                "check": "bracket",
                                "detail": f"[{ca.p},{ca.q}] x [{cb.p},{cb.q}] hits "
                                f"absent bidegree {target}",
                            }
                        )
                    elif kernel.zi_reduce(w, tspace):
                        bracket_ok = False
                        failures.append(
                            {
                                "check": "bracket",
                                "detail": f"bracket of ({ca.p},{ca.q}) and "
                                f"({cb.p},{cb.q}) generators leaves the "
                                f"{target} component",
                            }
                        )

    conjugation = "exact"
    if spans:
        s_rows, _ = kernel.zi_rows(Lc.real_structure.entries)
        identity = all(row == {j: (1, 0)} for j, row in enumerate(s_rows))
        exact_all = True
        lax_all = True
        for c in g.components:
            img = [kernel.zi_conj(row) for row in rows[c.p, c.q]]
            if not identity:
                img = [kernel.zi_matvec(s_rows, row) for row in img]
            mirror = echelons.get((c.q, c.p), [])
            # conj maps the component's span onto the span of img, so
            # img equals the mirror when it has the same rank and lies in it.
            if len(echelons[c.p, c.q]) != len(mirror) or any(
                kernel.zi_reduce(row, mirror) for row in img
            ):
                exact_all = False
                allowed = list(mirror)
                for (p, q), comp_rows in rows.items():
                    if p + q < c.p + c.q:
                        for row in comp_rows:
                            kernel.zi_insert(allowed, row)
                if any(kernel.zi_reduce(row, allowed) for row in img):
                    lax_all = False
                    failures.append(
                        {
                            "check": "conjugation",
                            "detail": f"conj of ({c.p},{c.q}) not inside "
                            f"({c.q},{c.p}) + lower weight",
                        }
                    )
                else:
                    failures.append(
                        {
                            "check": "conjugation",
                            "detail": f"conj of ({c.p},{c.q}) equals ({c.q},{c.p}) "
                            "only modulo lower weight",
                        }
                    )
        conjugation = "exact" if exact_all else ("mod_lower_weight" if lax_all else "fails")
    else:
        conjugation = "fails"

    support_ok = False
    box_ok = False
    if spans and bracket_ok and g.is_restricted_shape():
        # Dual generators carry bidegrees (1,0), (0,1), (1,1); a degree-j
        # monomial with a + b + c = j of them sits at (a+c, b+c), which obeys
        # j <= p+q <= 2j and 0 <= p,q <= j outright.  No computation needed.
        support_ok = True
        box_ok = True
    elif spans and bracket_ok:
        try:
            table = bigraded_cohomology(Lc, g)
        except GradingNotCompatible as exc:  # defensive; bracket check should catch
            failures.append({"check": "support", "detail": str(exc)})
        else:
            support_ok = True
            box_ok = True
            for (j, p, q, d) in table.by_bidegree or ():
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
    elif spans:
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
        if not self.hodge:
            return Subspace.zero(self.ambient_dim)
        if p <= self.hodge[0][0]:
            return self.hodge[0][1]
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


def _conj_subspace(s: Subspace, conj_vec) -> Subspace:
    return Subspace.from_spanning(
        [conj_vec(v) for v in s.vectors()], ambient_dim=s.ambient_dim
    )


def bigrading_from_filtrations(
    fp: FiltrationPair, real_structure: ExactMatrix
) -> Bigrading:
    """Recover the bigrading by the standard splitting of a mixed structure.

    V_{p,q} = F^p n W_{p+q} n ( conj(F^q) n W_{p+q}
                                + sum_{i>=2} conj(F^{q-i+1}) n W_{p+q-i} ).
    """
    n = fp.ambient_dim

    def conj_vec(v):
        return real_structure.matvec([conj(as_scalar(x)) for x in v])

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
            second = _conj_subspace(fp.f(q), conj_vec).intersect(w_pq)
            lowest = fp.weight[0][0] if fp.weight else p + q
            i = 2
            while p + q - i >= lowest:
                term = _conj_subspace(fp.f(q - i + 1), conj_vec).intersect(
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


def _real_form_basis(Lc: LieAlgebra) -> ExactMatrix:
    """Basis of the conjugation-fixed rational form of a Q(i) algebra.

    Solves S * conj(x) = x as a rational linear system on (Re x, Im x).
    """
    n = Lc.dim
    s = Lc.real_structure
    if s is None:
        raise MissingRealStructure(f"{Lc.name}: no real structure")
    # Over the common denominator D of S, D S = A + iB with integer A, B, and
    # the real and imaginary parts of (A + iB)(a - ib) = D (a + ib) give the
    # rows of the 2n x 2n realified system on (a, b).
    s_rows, den = kernel.zi_rows(s.entries)
    rows = []
    for out, row in enumerate(s_rows):
        a, b = zip(*(row.get(j, (0, 0)) for j in range(n)))
        row_re, row_im = [*a, *b], [*b, *(-x for x in a)]
        row_re[out] -= den
        row_im[n + out] -= den
        rows += [{c: x for c, x in enumerate(r) if x} for r in (row_re, row_im)]
    fixed = kernel.null_space(rows, 2 * n, "Q")
    vectors = [
        kernel.zi_decode({j: (row.get(j, 0), row.get(n + j, 0)) for j in range(n)}, d, n)
        for row, d in fixed
    ]
    if len(vectors) != n:
        raise MissingRealStructure(
            f"{Lc.name}: fixed space of conjugation has dimension "
            f"{len(vectors)}, expected {n}"
        )
    return ExactMatrix(vectors, cols=n)


def _realified(L: LieAlgebra) -> tuple[LieAlgebra, LieAlgebra, ExactMatrix]:
    """(complex carrier, rational form, basis matrix of the rational form).

    The rational form holds only `Rational` constants: a `Gaussian` constant
    of an algebra over Q is read as its real part, and a non-real one is
    refused, as for the rational form of an algebra over Q(i).
    """
    Lc = _complex_carrier(L)
    if L.field == "Q":
        t_real = ExactMatrix.identity(L.dim)
        if not any(isinstance(c, Gaussian) for _, coeffs in L.brackets for _, c in coeffs):
            return Lc, L, t_real
        form, name = L, L.name
    else:
        t_real = _real_form_basis(Lc)
        name = f"{L.name}.real"
        form = apply_basis_change(Lc, t_real, name=name)
    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for (i, j), coeffs in form.brackets:
        row = {}
        for k, c in coeffs:
            if isinstance(c, Gaussian):
                if c.im:
                    raise MissingRealStructure(
                        f"{L.name}: rational form has non-real constants"
                    )
                c = c.re
            row[k] = c
        brackets[(i, j)] = row
    real_alg = LieAlgebra.from_brackets(
        name=name,
        dim=L.dim,
        brackets=brackets,
        field="Q",
        basis_names=form.basis_names,
        check=False,
    )
    return Lc, real_alg, t_real


def _sqrt_rational(r: Rational):
    """Exact square root in Q, or None."""
    if r.num < 0:
        return None
    a = isqrt(r.num)
    b = isqrt(r.den)
    if a * a == r.num and b * b == r.den:
        return Rational(a, b)
    return None


def _lead(row) -> int:
    return next(j for j, x in enumerate(row) if x)


class _TwoStepFrame:
    """Quotient V = L / Z of a rational 2-step algebra and its bracket forms.

    V has the coordinates of the columns f_0 < f_1 < ... that are not pivots
    of the center's canonical basis, and `lift` puts a vector of V on them.
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
    """

    def __init__(self, R: LieAlgebra):
        self.n = R.dim
        self.z = center(R)
        pivots = {_lead(row) for row in self.z.basis.entries}
        self.free = [j for j in range(self.n) if j not in pivots]
        self.v = len(self.free)
        self.c1 = commutator_ideal(R)
        slot = {f: a for a, f in enumerate(self.free)}
        coord = {_lead(row): t for t, row in enumerate(self.c1.basis.entries)}
        table = structure_table(R)
        self.den = table.den
        self.forms = [[[0] * self.v for _ in range(self.v)] for _ in coord]
        for i, j, ks, xs in zip(*table.columns):
            if i in slot and j in slot:
                a, b = slot[i], slot[j]
                for k, x in zip(ks, xs):
                    if k in coord:
                        self.forms[coord[k]][a][b] = x
                        self.forms[coord[k]][b][a] = -x
        self.form_rows = [[kernel.zi_int_row(row) for row in form] for form in self.forms]

    def commutant_rows(self, rows) -> list[kernel.ZiRow]:
        """The nonzero rows F_t u for the Z[i] rows u in ``rows``.

        x commutes with every u exactly when x . F_t u = 0 for all of them.
        """
        return [
            fu for u in rows for form in self.form_rows if (fu := kernel.zi_matvec(form, u))
        ]

    def lift(self, u) -> Vector:
        """Section of the quotient: coordinates on the free columns."""
        vec = [Q0] * self.n
        for coord, f in zip(u, self.free):
            vec[f] = vec[f] + coord
        return tuple(vec)

    def pair(self, t: int, u, w) -> Scalar:
        """The t-th form on u and w: the t-th coordinate of [lift(u), lift(w)]."""
        total = Q0
        for x, row in zip(u, self.forms[t]):
            if x:
                for f, y in zip(row, w):
                    if f and y:
                        total = total + x * f * y
        return total / self.den

    def std_basis(self):
        out = []
        for a in range(self.v):
            e = [Q0] * self.v
            e[a] = Q1
            out.append(tuple(e))
        return out


def _darboux_u(frame: _TwoStepFrame) -> list[Vector] | None:
    """U generators for a one-dimensional commutator ideal (symplectic case)."""
    if frame.c1.dim != 1:
        return None
    remaining = frame.std_basis()
    pairs = []
    while remaining:
        x = remaining.pop(0)
        partner = None
        for idx, y in enumerate(remaining):
            if frame.pair(0, x, y):
                partner = idx
                break
        if partner is None:
            return None  # degenerate; cannot happen for V = L/Z
        y = remaining.pop(partner)
        lam = frame.pair(0, x, y)
        y = tuple(t / lam for t in y)
        reduced = []
        for vv in remaining:
            a = frame.pair(0, x, vv)
            b = frame.pair(0, y, vv)
            if a or b:
                vv = tuple(t - a * yy + b * xx for t, yy, xx in zip(vv, y, x))
            reduced.append(vv)
        remaining = reduced
        pairs.append((x, y))
    iu = Gaussian(0, 1)
    return [tuple(a - iu * b for a, b in zip(x, y)) for (x, y) in pairs]


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


def _isqrt_exact(n: int):
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def _integer_roots_monic_cubic(b2: int, b1: int, b0: int) -> list[int]:
    """Integer roots of y^3 + b2 y^2 + b1 y + b0 by exact sign bisection."""

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


def _ratio(num: int, den: int) -> tuple[int, int]:
    """num / den as ``(num, den)`` in lowest terms with den > 0."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _rational_roots(coeffs) -> list[tuple[int, int]]:
    """All rational roots of an integer polynomial of degree <= 3, as `_ratio` pairs."""
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    if not coeffs:
        return []
    roots: list[tuple[int, int]] = []
    # Factor out powers of lambda.
    while coeffs and not coeffs[0]:
        coeffs = coeffs[1:]
        if (0, 1) not in roots:
            roots.append((0, 1))
    if len(coeffs) <= 1:
        return roots
    g = gcd(*coeffs)
    ints = [c // g for c in coeffs]
    deg = len(ints) - 1
    if deg == 1:
        roots.append(_ratio(-ints[0], ints[1]))
    elif deg == 2:
        c0, c1, c2 = ints
        disc = c1 * c1 - 4 * c2 * c0
        r = _isqrt_exact(disc)
        if r is not None:
            roots.append(_ratio(-c1 + r, 2 * c2))
            roots.append(_ratio(-c1 - r, 2 * c2))
    elif deg == 3:
        c0, c1, c2, c3 = ints
        # y = c3 * lambda turns the cubic monic with integer coefficients.
        for y in _integer_roots_monic_cubic(c2, c1 * c3, c0 * c3 * c3):
            roots.append(_ratio(y, c3))
    out = []
    for r in roots:
        if r not in out:
            out.append(r)
    return out


# The pencil constructions and the depth-first search work on the kernel's
# Z[i] rows and exact vectors ``(row, den)`` in lowest terms
# (`kernel.zi_lowest`), so that equal vectors are equal pairs; a group of
# seeds is a list of them.  The J-space construction works on scalars.


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
    member contributes).  W = M_g^{-1} M_o for an invertible member M_g is
    self-adjoint for the member pairing, so W-cyclic subspaces commute; its
    orbit vectors make strong search candidates.  W is read off the reduced
    form [I | W] of [M_g | M_o] and returned as ``(rows, d)``: the Z[i] rows
    of W times the integer d.  It is None for a singular pencil.
    """
    v = frame.v
    pf = _pfaffian_poly(frame.forms[0], frame.forms[1], v) if v % 2 == 0 and v <= 8 else [1]
    tries = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2))
    if all(not c for c in pf):
        return list(_kernel_groups(frame, tries)), None
    # Degenerate members: finite rational roots mu with Pf(mu*M1+M2)=0
    # read off the polynomial in the M1 direction, plus (1:0) itself.
    members = _rational_roots(pf)
    if not pf[-1] or len(pf) - 1 < v // 2:
        members.append((1, 0))
    groups = list(_kernel_groups(frame, members))
    # Invertible member for the pencil operator.
    for lam, mu in tries + ((1, -2),):
        aug = [
            {**g, **{v + j: e for j, e in o.items()}}
            for g, o in zip(_member(frame, (lam, mu)), _member(frame, (mu, -lam)))
        ]
        red, pivots = kernel.rref_qi(aug, 2 * v)
        if pivots == list(range(v)):
            exact = [kernel.zi_exact(row, r) for r, row in enumerate(red)]
            w = [({j - v: e for j, e in row.items() if j >= v}, d) for row, d in exact]
            return groups, kernel.zi_common(w)
    return groups, None


def _generic_seeds(frame: _TwoStepFrame) -> list[list[tuple[kernel.ZiRow, int]]]:
    """Degenerate-combination kernel groups for commutator dimension >= 3."""
    c = frame.c1.dim
    v = frame.v
    combos: list[tuple[int, ...]] = []
    for t in range(c):
        kappa = [0] * c
        kappa[t] = 1
        combos.append(tuple(kappa))
    for t1 in range(c):
        for t2 in range(t1 + 1, c):
            for s in (1, -1):
                kappa = [0] * c
                kappa[t1] = 1
                kappa[t2] = s
                combos.append(tuple(kappa))
    groups = []
    for null in _kernel_groups(frame, combos):
        groups.append(null)
        if sum(len(g) for g in groups) >= 4 * v:
            break
    return groups


def _compatible_complex_structures(frame: _TwoStepFrame):
    """Basis of {A : beta_t(Ax, y) + beta_t(x, Ay) = 0 for every component}.

    A solution with A^2 = -I is exactly a complex structure J whose graph
    U = {x - iJx} commutes for every bracket component; mu in A^2 = mu I is
    invariant under basis change, so rational solutions transport.
    """
    v = frame.v
    rows = []
    # Unknowns: A[r][s] flattened; equations: (A^T M + M A)[p][q] = 0, p < q.
    # (A^T M)[p][q] = sum_r A[r][p] M[r][q] and (M A)[p][q] = sum_s M[p][s]
    # A[s][q]; as p < q the two sums share no unknown.
    for m in frame.forms:
        for p in range(v):
            for q in range(p + 1, v):
                row = {r * v + p: m[r][q] for r in range(v) if m[r][q]}
                row.update((s * v + q, m[p][s]) for s in range(v) if m[p][s])
                if row:
                    rows.append(row)
    if not rows:
        return []
    out = []
    for vec, den in kernel.null_space(rows, v * v, "Q"):
        flat = kernel.q_decode(vec, den, v * v)
        out.append(ExactMatrix([flat[r * v : (r + 1) * v] for r in range(v)], cols=v))
    return out


class _ProductTable:
    """Products of the basis A_0, ..., A_{k-1} of the compatible-structure space.

    A J-space candidate is a combination sum c_a A_a and is handled as its
    coefficient tuple c; the A_a are independent, so it is zero only when c
    is.  Its square and its anticommutators are sums of the
    products P_ab = A_aA_b + A_bA_a (a < b) and P_aa = A_a^2, each formed
    once, when first needed.  A product is kept as ``(mu, residual)``: mu is
    its (0, 0) entry and residual its other entries in row-major order, less
    mu on the diagonal.  A combination of products is a multiple of I
    exactly when the same combination of residuals is zero.
    """

    def __init__(self, basis: list[ExactMatrix]):
        self.basis = basis
        self.k = len(basis)
        self.units = [
            tuple(Q1 if b == a else Q0 for b in range(self.k)) for a in range(self.k)
        ]
        self._products: dict[tuple[int, int], tuple] = {}

    def product(self, a: int, b: int) -> tuple:
        """``(mu, residual)`` of P_ab, for a <= b."""
        got = self._products.get((a, b))
        if got is None:
            x, y = self.basis[a], self.basis[b]
            m = x.matmul(x) if a == b else x.matmul(y).add(y.matmul(x))
            mu = m.entries[0][0]
            residual = tuple(
                e - mu if r == s else e
                for r, row in enumerate(m.entries)
                for s, e in enumerate(row)
                if r or s
            )
            got = self._products[a, b] = (mu, residual)
        return got

    def anticommutator(self, c, d):
        """beta with XY + YX = beta*I for X = sum c_a A_a, Y = sum d_a A_a, or None."""
        support = [a for a in range(self.k) if c[a] or d[a]]
        terms = []
        for i, a in enumerate(support):
            for b in support[i:]:
                coef = 2 * c[a] * d[a] if a == b else c[a] * d[b] + c[b] * d[a]
                if coef:
                    terms.append((coef, self.product(a, b)))
        return _scalar_multiple(terms)

    def square(self, c):
        """mu with X^2 = mu*I for X = sum c_a A_a, or None."""
        beta = self.anticommutator(c, c)
        return None if beta is None else beta / 2

    def matrix(self, c) -> ExactMatrix:
        """The matrix sum c_a A_a."""
        terms = [(x, m.entries) for x, m in zip(c, self.basis) if x]
        v = self.basis[0].rows
        return ExactMatrix(
            [
                [sum((x * m[r][s] for x, m in terms), Q0) for s in range(v)]
                for r in range(v)
            ],
            cols=v,
        )


def _scalar_multiple(terms):
    """mu with sum c*P = mu*I over the ``(c, (mu_P, residual_P))`` terms, or None.

    mu must be rational: a complex mu counts as no multiple.
    """
    for column in zip(*(residual for _, (_, residual) in terms)):
        total = Q0
        for (c, _), x in zip(terms, column):
            if x:
                total = total + c * x
        if total:
            return None
    mu = Q0
    for c, (m, _) in terms:
        if m:
            mu = mu + c * m
    if isinstance(mu, Gaussian):
        if mu.im:
            return None
        mu = mu.re
    return mu


def _rays_with_square_condition(table: _ProductTable, a: int, b: int):
    """Rational rays x*A_a + y*A_b with a scalar square, as coefficient tuples.

    Each residual entry of (x*A_a + y*A_b)^2 is a homogeneous binary
    quadratic whose coefficients are that entry of P_aa, P_ab and P_bb; the
    rational roots of the first nontrivial one are checked against the rest.
    """
    ea, eb = table.units[a], table.units[b]
    quads = [
        q
        for q in zip(
            table.product(a, a)[1], table.product(a, b)[1], table.product(b, b)[1]
        )
        if any(q)
    ]
    if not quads:
        # every combination already works; try the two axes
        return [ea, eb]

    def as_rat(x):
        if isinstance(x, Gaussian):
            if x.im:
                raise ValueError("complex coefficient in a real pencil")
            return x.re
        return x

    qa, qb, qc = (as_rat(x) for x in quads[0])
    candidates = []
    if not qa:
        candidates.append((Q1, Q0))
    if not qc:
        candidates.append((Q0, Q1))
    if qa:
        # roots of qa t^2 + qb t + qc for t = x/y
        den = qa.den * qb.den * qc.den
        ia = qa.num * (den // qa.den)
        ib = qb.num * (den // qb.den)
        ic = qc.num * (den // qc.den)
        disc = ib * ib - 4 * ia * ic
        root = _isqrt_exact(disc)
        if root is not None:
            for sign in (1, -1):
                candidates.append((Rational(-ib + sign * root, 2 * ia), Q1))
    return [
        tuple(x * p + y * q for p, q in zip(ea, eb))
        for x, y in candidates
        if all(not (ca * x * x + cb * x * y + cc * y * y) for ca, cb, cc in quads)
    ]


def _nilpotent_via_conic(table: _ProductTable):
    """Coefficients of a nonzero nilpotent in a 3-dim quaternion-like space.

    The squares define a ternary quadratic form on the space; a rational
    isotropic vector (Legendre reduction in nilqp._arith) is a nilpotent.
    """
    if table.k != 3:
        return None
    units = table.units
    gram = [[None] * 3 for _ in range(3)]
    for i in range(3):
        mu = table.square(units[i])
        if mu is None:
            return None
        gram[i][i] = mu
        for j in range(i + 1, 3):
            beta = table.anticommutator(units[i], units[j])
            if beta is None:
                return None
            gram[i][j] = gram[j][i] = beta / 2

    # Congruence diagonalization over Q, tracking the combination vectors.
    def form(x, y):  # B(sum x_i A_i, sum y_j A_j)
        total = Rational(0)
        for i in range(3):
            if not x[i]:
                continue
            for j in range(3):
                if y[j]:
                    total = total + x[i] * gram[i][j] * y[j]
        return total

    ortho = []
    rest = list(units)
    for _ in range(3):
        pivot = None
        for idx, w in enumerate(rest):
            if form(w, w):
                pivot = idx
                break
        if pivot is None:
            # every remaining vector is isotropic
            for w in rest:
                if any(w):
                    return w
            return None
        w = rest.pop(pivot)
        ortho.append(w)
        d = form(w, w)
        rest = [
            tuple(x - (form(xv, w) / d) * y for x, y in zip(xv, w))
            for xv in rest
        ]
    ds = [form(w, w) for w in ortho]
    for idx, d in enumerate(ds):
        if not d:
            return ortho[idx]
    sol = solve_ternary(ds[0], ds[1], ds[2])
    if sol is None:
        return None
    coords = tuple(
        sum((Rational(sol[t]) * ortho[t][i] for t in range(3)), Rational(0))
        for i in range(3)
    )
    return coords if any(coords) else None


def _split_structure_candidates(table: _ProductTable) -> list[tuple]:
    """Complex structures via nilpotents of a quaternion-like solution space.

    When every A in the space squares to a scalar, a nonzero nilpotent N and
    any B with NB + BN = beta*I (beta != 0), B^2 = b*I combine to
    J = ((-1 - b)/beta) N + B, which squares to -I exactly.  Candidates are
    coefficient tuples on the table's basis.
    """
    units = table.units
    mus = [table.square(e) for e in units]
    nilpotents = [e for e, mu in zip(units, mus) if mu is not None and not mu]
    if not nilpotents and table.k == 3:
        conic = _nilpotent_via_conic(table)
        if conic is not None and table.square(conic) == Q0:
            nilpotents.append(conic)
    # Rational nilpotent rays inside pairs: mu(A_i + t A_j) = 0.
    for i in range(table.k):
        for j in range(table.k):
            if i == j or mus[i] is None or mus[j] is None or not mus[j]:
                continue
            beta = table.anticommutator(units[i], units[j])
            if beta is None:
                continue
            # mu(A_i) + t*beta + t^2 mu(A_j) = 0
            mi, mj = mus[i], mus[j]
            den = mi.den * beta.den * mj.den
            c0 = mi.num * (den // mi.den)
            c1 = beta.num * (den // beta.den)
            c2 = mj.num * (den // mj.den)
            disc = c1 * c1 - 4 * c2 * c0
            root = _isqrt_exact(disc)
            if root is None:
                continue
            for sign in (1, -1):
                t = Rational(-c1 + sign * root, 2 * c2)
                nilpotents.append(tuple(x + t * y for x, y in zip(units[i], units[j])))
    out = []
    for n in nilpotents[:8]:
        for e, mu_b in zip(units, mus):
            if mu_b is None:
                continue
            beta = table.anticommutator(n, e)
            if not beta:
                continue
            x = (Rational(-1) - mu_b) / beta
            out.append(tuple(x * p + q for p, q in zip(n, e)))
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


def _jspace_u(frame: _TwoStepFrame, h: int):
    """U from a bracket-compatible complex structure (any commutator size)."""
    if frame.v != 2 * h or frame.v == 0:
        return None
    space = _compatible_complex_structures(frame)
    if not space:
        return None
    table = _ProductTable(space)
    iu = Gaussian(0, 1)
    for coeffs in _jspace_candidates(table):
        # J = A / sqrt(-mu) when A^2 = mu*I with -mu a rational square.
        mu = table.square(coeffs)
        if mu is None or mu.num >= 0:
            continue
        root = _sqrt_rational(-mu)
        if root is None:
            continue
        inv = Rational(root.den, root.num)
        j = table.matrix(tuple(inv * x for x in coeffs))
        # U = {x - i J x}: automatically transverse to its conjugate.
        u_vecs = []
        u_rows: list[kernel.ZiRow] = []
        echelon: list = []
        for x in frame.std_basis():
            jx = j.matvec(x)
            u = tuple(xx - iu * yy for xx, yy in zip(x, jx))
            row = kernel.zi_row(u)
            if kernel.zi_insert(echelon, row):
                u_vecs.append(u)
                u_rows.append(row)
            if len(u_vecs) == h:
                break
        if len(u_vecs) == h and _bi_isotropic(frame, u_rows) and _transversal(u_rows):
            return u_vecs
    return None


def _unit_vectors(v: int) -> list[tuple[kernel.ZiRow, int]]:
    return [({a: (1, 0)}, 1) for a in range(v)]


def _krylov_span(w_rows, u: kernel.ZiRow, h: int) -> list[kernel.ZiRow]:
    """The Z[i] rows u, Wu, W^2 u, ... while they are independent.

    ``w_rows`` are the rows of W times a denominator d, so the k-th row is
    W^k u times d^k.  It stops after h + 1 rows, so that a span longer than
    h shows as h + 1 rows.
    """
    rows: list[kernel.ZiRow] = []
    echelon: list = []
    for _ in range(h + 1):
        if not u or not kernel.zi_insert(echelon, u):
            break
        rows.append(u)
        if len(rows) > h:
            break
        u = kernel.zi_matvec(w_rows, u)
    return rows


def _bi_isotropic(frame: _TwoStepFrame, rows) -> bool:
    """Whether every bracket form vanishes on every two of the Z[i] rows."""
    return not any(
        kernel.zi_matvec(rows[:k], fy)
        for k in range(1, len(rows))
        for fy in frame.commutant_rows([rows[k]])
    )


def _transversal(rows) -> bool:
    """Whether the Z[i] rows and their conjugates are independent."""
    echelon: list = []
    return all(
        kernel.zi_insert(echelon, row) and kernel.zi_insert(echelon, kernel.zi_conj(row))
        for row in rows
    )


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


def _pencil_candidates(gen_groups, pool):
    """Candidate cyclic vectors as ``(row, den)``, in the order they are tried.

    First, when there are two or more generalized eigenspaces and each has
    two or more basis vectors, sums of one transverse vector from each (48
    at most); then x + i*y for any two distinct vectors of ``pool``.  Both
    are generated lazily.
    """
    one = (1, 0)
    if len(gen_groups) >= 2 and all(len(g) >= 2 for g in gen_groups):
        rows, den = kernel.zi_common([vec for grp in gen_groups for vec in grp])
        it = iter(rows)
        pools = [_group_terms([next(it) for _ in grp]) for grp in gen_groups]
        for terms in islice(product(*pools), 48):
            yield kernel.zi_combine(*((one, t) for t in terms)), den
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


def _regular_pencil_u(frame: _TwoStepFrame, seeds, w, h: int):
    """Direct construction of U for a regular two-form pencil.

    The operator W = M_g^{-1} M_o satisfies beta_g(u, Wv) = -beta_g(v, Wu),
    so W-cyclic subspaces commute for every member of the pencil.  A cyclic
    vector of minimal-polynomial degree h yields U directly; when the cyclic
    depth falls one short, the last generator is completed from the exact
    commutant intersected with the eigenvector seeds.

    ``seeds`` and ``w`` are as `_pencil_structure` returns them; only the U
    returned is decoded.
    """
    v = frame.v
    w_rows, d = w

    def decoded(rows, den):
        return [kernel.zi_decode(row, den * d**k, v) for k, row in enumerate(rows)]

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
    # Generic vectors next: they are cyclic whenever anything is.
    pool = _unit_vectors(v)
    for grp in seeds:
        for vec in grp:
            if vec not in pool:
                pool.append(vec)
    partials = []
    for u, den in islice(_pencil_candidates(gen_groups, pool), 200):
        rows = _krylov_span(w_rows, u, h)
        if len(rows) == h:
            if _transversal(rows) and _bi_isotropic(frame, rows):
                return decoded(rows, den)
        elif len(rows) == h - 1 and len(partials) < 16:
            if _bi_isotropic(frame, rows):
                partials.append((rows, den))
    # span(grp) is the null space of its annihilator's rows.
    constraints = [
        [row for row, _ in kernel.null_space([row for row, _ in grp], v, "Qi")]
        for grp in seeds
    ]
    constraints.append(w_rows)
    for rows, den in partials:
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
            if w:
                full = rows + [w]
                if _transversal(full) and _bi_isotropic(frame, full):
                    return decoded(rows, den) + [kernel.zi_decode(w, pool_den, v)]
    return None


def _dfs_u(frame: _TwoStepFrame, h: int, bounds: SearchBounds, structure=None):
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

    ``structure`` is `_pencil_structure`'s result.  Every vector is an exact
    vector; an invariant subspace is kept as its annihilator's rows, so its
    meet with a constraint space is one null space.  A candidate is a
    bounded combination of a node's pool rows, tested on the combination of
    their residuals modulo the generators chosen and their conjugates,
    computed once per node; only a candidate that passes is formed.  Only
    the U returned is decoded.
    """
    v = frame.v
    groups: list = []
    w = None
    if structure is not None:
        groups, w = structure
    elif frame.c1.dim >= 3:
        groups = _generic_seeds(frame)
    seeds = [vec for grp in groups for vec in grp]
    spans = [[row for row, _ in grp] for grp in groups]
    if w is not None:
        w_rows, d = w
        power = w_rows
        for _ in range(h):
            # The kernel of W^k, and its image, spanned by its columns.
            columns = [
                {r: row[j] for r, row in enumerate(power) if j in row} for j in range(v)
            ]
            spans += [[row for row, _ in kernel.null_space(power, v, "Qi")], columns]
            power = kernel.zi_matmul(power, w_rows)
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
    # Each invariant subspace S with 0 < dim S < v, once, as the rows of its
    # annihilator's reduced basis: equal subspaces have equal such rows (each
    # row holds its vector's denominator at its pivot).
    annihilators: list[list[kernel.ZiRow]] = []
    for rows in spans:
        ann = [row for row, _ in kernel.null_space(rows, v, "Qi")]
        if 0 < len(ann) < v and ann not in annihilators:
            annihilators.append(ann)
    # Small invariant subspaces (long annihilators) are the strongest anchors:
    # any commuting family is forced to meet the pencil radical, so explore
    # those first.
    annihilators = sorted(annihilators, key=len, reverse=True)[:8]
    budget = [bounds.max_nodes]
    coeffs = [c for c in bounds.coefficients if c]

    def complex_pool(constraints, space, chosen):
        """The pool of a node as Z[i] rows over one denominator ``(rows, den)``."""
        pool: list[tuple[kernel.ZiRow, int]] = []

        def push(vec):
            if vec not in pool:
                pool.append(vec)

        if w is not None:
            for row, den in chosen:
                img = kernel.zi_matvec(w_rows, row)
                if img and not kernel.zi_matvec(constraints, img):
                    push(kernel.zi_lowest(img, den * d))
        for ann in annihilators:
            meet = kernel.null_space(ann + constraints, v, "Qi")
            if 0 < len(meet) < len(space):
                for vec in meet:
                    push(vec)
        for vec in seeds:
            if not kernel.zi_matvec(constraints, vec[0]):
                push(vec)
        for vec in space:
            push(vec)
        return kernel.zi_common(pool)

    def complex_candidates(n):
        """Candidates over a pool of ``n`` rows, in the search order.

        Each is its terms ``(c, index)``, the sum of ``c`` times pool row
        ``index`` with ``c = (re, im)`` in Z[i].
        """
        one = (1, 0)
        for a in range(n):
            yield ((one, a),)
        if bounds.depth >= 2:
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    for cc in coeffs:
                        yield (one, a), ((cc, 0), b)
                        yield (one, a), ((0, cc), b)
        if bounds.depth >= 3:
            for a in range(n):
                for b in range(a + 1, n):
                    for c in range(b + 1, n):
                        for c_b in coeffs:
                            iy = ((0, c_b), b)
                            for c_c in coeffs:
                                yield (one, a), iy, ((c_c, 0), c)
                                yield (one, a), iy, ((0, c_c), c)

    def rec(chosen, red: RowReducer):
        # ``chosen`` holds the generators as ``(row, den)``, and ``red`` them
        # and their conjugates, spanning S.  A candidate u is independent of
        # them when rho(u) and rho(conj u) span a plane, for the linear
        # reduction rho modulo S (`kernel.zi_residual`), so the residuals of
        # the pool rows and their conjugates are all it needs.  Only a
        # candidate that passes is formed.  Every candidate makes one
        # `RowReducer.add`: perfbench counts those calls as nodes.
        if len(chosen) == h:
            return [kernel.zi_decode(row, den, v) for row, den in chosen]
        constraints = frame.commutant_rows([row for row, _ in chosen])
        space = kernel.null_space(constraints, v, "Qi")
        if len(space) < h:
            return None
        rows, den = complex_pool(constraints, space, chosen)
        res = [kernel.zi_residual(row, red.rows) for row in rows]
        res_conj = [kernel.zi_residual(kernel.zi_conj(row), red.rows) for row in rows]
        for terms in complex_candidates(len(rows)):
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            quot = RowReducer(v)
            if not (
                quot.add(kernel.zi_combine(*((c, res[i]) for c, i in terms)))
                and quot.add(
                    kernel.zi_combine(*(((cr, -ci), res_conj[i]) for (cr, ci), i in terms))
                )
            ):
                continue
            cand = kernel.zi_combine(*((c, rows[i]) for c, i in terms))
            grown = red.copy()
            grown.add(cand)
            grown.add(kernel.zi_conj(cand))
            result = rec(chosen + [(cand, den)], grown)
            if result is not None:
                return result
        return None

    return rec([], RowReducer(v))


def search_bigrading(
    L: LieAlgebra, bounds: SearchBounds | None = None
) -> SearchOutcome:
    """Bounded search for a restricted-shape mixed-structure bigrading."""
    bounds = bounds or SearchBounds()
    Lc, R, t_real = _realified(L)
    series = lower_central_series(R)
    if series.nilpotency_class > 2:
        return SearchOutcome(
            status="obstructed",
            reason="nilpotency_class",
            witness={"nilpotency_class": series.nilpotency_class},
            bounds=bounds,
        )
    frame = _TwoStepFrame(R)
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
    h = frame.v // 2
    u_gens = None
    if frame.v == 0:
        u_gens = []
    structure = None
    dfs_tried = False
    if u_gens is None and frame.c1.dim == 1:
        u_gens = _darboux_u(frame)
    if u_gens is None and frame.c1.dim == 2:
        structure = _pencil_structure(frame)
        if structure[1] is not None:
            u_gens = _regular_pencil_u(frame, *structure, h)
        else:
            # Singular pencil: every member is degenerate and the seeded
            # depth-first search over the kernel strips is cheap and robust.
            u_gens = _dfs_u(frame, h, bounds, structure=structure)
            dfs_tried = True
    if u_gens is None and frame.c1.dim >= 2:
        u_gens = _jspace_u(frame, h)
    if u_gens is None and not dfs_tried:
        u_gens = _dfs_u(frame, h, bounds, structure=structure)
    if u_gens is None:
        return SearchOutcome(
            status="not_found_within_bounds", witness=necessary, bounds=bounds
        )
    t_back = t_real.transpose()
    # Over Q, R has the constants of L, and Z(L_c) has the canonical basis
    # of the frame's Z(R).
    z_c = frame.z if L.field == "Q" else center(Lc)
    u_orig = [t_back.matvec(frame.lift(u)) for u in u_gens]
    ubar_orig = [Lc.conj_vector(u) for u in u_orig]
    comps = []
    if u_orig:
        comps.append((-1, 0, u_orig))
        comps.append((0, -1, ubar_orig))
    if z_c.dim:
        comps.append((-1, -1, z_c.vectors()))
    grading = Bigrading.build(comps)
    report = _verify_on_carrier(Lc, grading, "strict")
    if not report.valid:
        report = _verify_on_carrier(Lc, grading, "lax")
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
