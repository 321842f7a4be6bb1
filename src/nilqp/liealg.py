"""Lie algebras over Q and Q(i) given by structure constants.

Brackets are stored sparsely: for each pair i < j a map k -> coefficient of
the k-th basis vector in [X_i, X_j].  Antisymmetry is implicit and the Jacobi
identity is enforced by ``validate``, which every public constructor calls.
Algebras over Q(i) may carry a real structure: an antilinear involution that
is also a bracket automorphism, used for all conjugation-dependent checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    AlreadyComplex,
    DimensionMismatch,
    FieldMismatch,
    InvalidRealStructure,
    JacobiViolation,
    NotNilpotent,
    SingularTransformation,
)
from .exact import ExactMatrix, Subspace, Vector, kernel_basis
from .scalars import Gaussian, Q0, Q1, Rational, Scalar, as_scalar, conj

__all__ = [
    "LieAlgebra",
    "ValidationReport",
    "LowerCentralSeries",
    "validate",
    "lower_central_series",
    "center",
    "commutator_ideal",
    "complexify",
    "apply_basis_change",
    "verify_isomorphism",
    "strip_abelian_factor",
    "abelian_split_transformation",
    "direct_sum",
    "abelian",
]

BracketMap = dict[tuple[int, int], dict[int, Scalar]]


def _freeze_brackets(brackets, dim: int) -> tuple:
    """Canonical sparse form: sorted ((i, j), ((k, c), ...)) with zeros dropped."""
    out = []
    for (i, j), coeffs in brackets.items():
        if not (0 <= i < j < dim):
            raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
        cleaned = []
        for k, c in coeffs.items():
            if not 0 <= k < dim:
                raise ValueError(f"bracket ({i}, {j}) targets invalid index {k}")
            c = as_scalar(c)
            if c:
                cleaned.append((k, c))
        if cleaned:
            out.append(((i, j), tuple(sorted(cleaned))))
    return tuple(sorted(out))


@dataclass(frozen=True)
class LieAlgebra:
    name: str
    dim: int
    field: str  # "Q" | "Qi"
    basis_names: tuple[str, ...]
    brackets: tuple  # canonical sparse form, see _freeze_brackets
    real_structure: ExactMatrix | None = None
    # Subspaces derived from the constants (lower central series, center),
    # computed at most once per instance: the algebra is immutable.
    _facts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_brackets(
        cls,
        name: str,
        dim: int,
        brackets: dict,
        *,
        field: str = "Q",
        basis_names=None,
        real_structure: ExactMatrix | None = None,
        check: bool = True,
    ) -> "LieAlgebra":
        if basis_names is None:
            basis_names = tuple(f"X{i + 1}" for i in range(dim))
        alg = cls(
            name=name,
            dim=dim,
            field=field,
            basis_names=tuple(basis_names),
            brackets=_freeze_brackets(brackets, dim),
            real_structure=real_structure,
        )
        if check:
            validate(alg)
        return alg

    # -- bracket evaluation -------------------------------------------------

    def _zero(self) -> Scalar:
        return Gaussian(0) if self.field == "Qi" else Q0

    def zero_vector(self) -> Vector:
        return tuple(self._zero() for _ in range(self.dim))

    def bracket_map(self) -> BracketMap:
        return {ij: dict(coeffs) for ij, coeffs in self.brackets}

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[X_i, X_j] as a coordinate vector."""
        v = [self._zero()] * self.dim
        if i == j:
            return tuple(v)
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        for (a, b), coeffs in self.brackets:
            if (a, b) == (i, j):
                for k, c in coeffs:
                    v[k] = c * sign if sign > 0 else -c
                break
        return tuple(v)

    def bracket(self, u, v) -> Vector:
        """Bilinear extension of the bracket to coordinate vectors.

        Over Q(i) every entry of the result is a `Gaussian`, zeros included.
        Over Q, entries are `Rational` unless the input holds `Gaussian`
        entries (the two-step frame's lifts mix both types): then an entry is
        a `Gaussian` exactly where a nonzero term u_i v_j - u_j v_i with a
        Gaussian factor, even a zero one, was added into it, and stays
        `Rational` elsewhere.
        """
        out = [self._zero()] * self.dim
        uu = [as_scalar(x) for x in u]
        vv = [as_scalar(x) for x in v]
        nu = [bool(x) for x in uu]
        nv = [bool(x) for x in vv]
        # A product with a zero factor adds nothing and is skipped, except over
        # Q with Gaussian input, where a Gaussian zero still makes the entry a
        # Gaussian.
        every = self.field == "Q" and (
            Gaussian in map(type, uu) or Gaussian in map(type, vv)
        )
        for (i, j), coeffs in self.brackets:
            if every:
                c = uu[i] * vv[j] - uu[j] * vv[i]
            elif nu[i] and nv[j]:
                c = uu[i] * vv[j] - uu[j] * vv[i] if nu[j] and nv[i] else uu[i] * vv[j]
            elif nu[j] and nv[i]:
                c = -(uu[j] * vv[i])
            else:
                continue
            if c:
                for k, w in coeffs:
                    out[k] = out[k] + c * w
        return tuple(out)

    def conj_vector(self, v) -> Vector:
        """Antilinear conjugation v -> S * conj(v); identity matrix over Q."""
        if self.field == "Q":
            return tuple(conj(as_scalar(x)) for x in v)
        if self.real_structure is None:
            raise InvalidRealStructure(f"{self.name}: no real structure available")
        return self.real_structure.matvec([conj(as_scalar(x)) for x in v])

    def has_conjugation(self) -> bool:
        return self.field == "Q" or self.real_structure is not None

    def is_abelian(self) -> bool:
        return not self.brackets

    def rename(self, name: str) -> "LieAlgebra":
        return LieAlgebra(
            name, self.dim, self.field, self.basis_names, self.brackets,
            self.real_structure,
        )

    def same_brackets(self, other: "LieAlgebra") -> bool:
        return self.dim == other.dim and self.brackets == other.brackets


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    lattice_admissible: bool
    has_real_structure: bool
    dim: int
    name: str


@dataclass(frozen=True)
class LowerCentralSeries:
    terms: tuple[Subspace, ...]  # C^0 = full >= C^1 >= ... >= C^t = 0
    nilpotency_class: int


def validate(L: LieAlgebra) -> ValidationReport:
    """Check the Jacobi identity on all basis triples and the real structure.

    Raises JacobiViolation or InvalidRealStructure; on success reports lattice
    admissibility (true over Q: rational structure constants admit a lattice).
    """
    n = L.dim
    basis_vectors = [
        tuple(Q1 if t == s else Q0 for t in range(n)) for s in range(n)
    ]
    brk = {ij: coeffs for ij, coeffs in L.brackets}
    for (i, j) in brk:
        if not (0 <= i < j < n):
            raise ValueError(f"{L.name}: bad bracket key ({i}, {j})")
    # Jacobi: [[Xi,Xj],Xk] + [[Xj,Xk],Xi] + [[Xk,Xi],Xj] = 0
    for i in range(n):
        for j in range(i + 1, n):
            vij = L.bracket_basis(i, j)
            for k in range(j + 1, n):
                t1 = L.bracket(vij, basis_vectors[k])
                t2 = L.bracket(L.bracket_basis(j, k), basis_vectors[i])
                t3 = L.bracket(L.bracket_basis(k, i), basis_vectors[j])
                residual = tuple(a + b + c for a, b, c in zip(t1, t2, t3))
                if any(residual):
                    raise JacobiViolation(i, j, k, residual)
    if L.real_structure is not None:
        s = L.real_structure
        if s.rows != n or s.cols != n:
            raise InvalidRealStructure(f"{L.name}: real structure has wrong shape")
        if s.matmul(s.conj_entrywise()) != ExactMatrix.identity(n):
            raise InvalidRealStructure(
                f"{L.name}: real structure is not an antilinear involution"
            )
        for i in range(n):
            ci = L.conj_vector(basis_vectors[i])
            for j in range(i + 1, n):
                lhs = L.conj_vector(L.bracket_basis(i, j))
                rhs = L.bracket(ci, L.conj_vector(basis_vectors[j]))
                if lhs != rhs:
                    raise InvalidRealStructure(
                        f"{L.name}: conjugation is not a bracket automorphism "
                        f"on pair ({i}, {j})"
                    )
    return ValidationReport(
        valid=True,
        lattice_admissible=(L.field == "Q"),
        has_real_structure=L.real_structure is not None or L.field == "Q",
        dim=n,
        name=L.name,
    )


def _bracket_span(L: LieAlgebra, sub: Subspace) -> Subspace:
    """Span of [X_i, w] over all basis vectors X_i and w in the subspace."""
    n = L.dim
    vecs = []
    for w in sub.vectors():
        for i in range(n):
            e = [Q0] * n
            e[i] = Q1
            v = L.bracket(e, w)
            if any(v):
                vecs.append(v)
    return Subspace.from_spanning(vecs, ambient_dim=n)


def lower_central_series(L: LieAlgebra) -> LowerCentralSeries:
    """C^0 = L, C^{k+1} = [L, C^k]; raises NotNilpotent if it stabilizes."""
    series = L._facts.get("lower_central_series")
    if series is not None:
        return series
    n = L.dim
    terms = [Subspace.full(n)]
    while terms[-1].dim > 0:
        nxt = _bracket_span(L, terms[-1])
        if nxt.dim == terms[-1].dim:
            raise NotNilpotent(nxt.dim)
        terms.append(nxt)
    series = LowerCentralSeries(terms=tuple(terms), nilpotency_class=len(terms) - 1)
    L._facts["lower_central_series"] = series
    return series


def center(L: LieAlgebra) -> Subspace:
    """{v : [v, X_i] = 0 for all i} via one exact kernel computation."""
    z = L._facts.get("center")
    if z is not None:
        return z
    n = L.dim
    if n == 0:
        return Subspace.zero(0)
    # Rational constants (also those of a complexification) have a rational
    # kernel, whose canonical basis is the same over Q(i).
    rational = all(
        isinstance(c, Rational) for _, coeffs in L.brackets for _, c in coeffs
    )
    # Stacked matrices of ad(.)X_i acting on v-coordinates: row i*n + k,
    # column j holds the X_k-coefficient of [X_j, X_i].
    rows = [[Q0 if rational else L._zero()] * n for _ in range(n * n)]
    for (i, j), coeffs in L.brackets:
        for k, c in coeffs:
            rows[j * n + k][i] = c  # [X_i, X_j]
            rows[i * n + k][j] = -c  # [X_j, X_i]
    z = kernel_basis(ExactMatrix(rows, cols=n))
    if rational and L.field == "Qi" and z.dim:
        z = Subspace(n, ExactMatrix([[Gaussian(x) for x in v] for v in z.vectors()]))
    L._facts["center"] = z
    return z


def commutator_ideal(L: LieAlgebra) -> Subspace:
    """C^1 L = span of all [X_i, X_j]."""
    vecs = [L.bracket_basis(i, j) for (i, j), _ in L.brackets]
    return Subspace.from_spanning(vecs, ambient_dim=L.dim)


def complexify(L: LieAlgebra) -> LieAlgebra:
    """Same structure constants over Q(i), with entrywise conjugation."""
    if L.field == "Qi":
        raise AlreadyComplex(f"{L.name} is already over Q(i)")
    return LieAlgebra.from_brackets(
        name=f"{L.name}(C)",
        dim=L.dim,
        brackets={ij: dict(c) for ij, c in L.brackets},
        field="Qi",
        basis_names=L.basis_names,
        real_structure=ExactMatrix.identity(L.dim),
        check=False,  # Jacobi is field-independent; conjugation is entrywise
    )


def apply_basis_change(
    L: LieAlgebra, T: ExactMatrix, name: str | None = None
) -> LieAlgebra:
    """Express the algebra in the new basis e_i = sum_j T[i][j] X_j.

    The real structure is transported through T.  Raises
    SingularTransformation when T is not invertible.
    """
    n = L.dim
    if T.rows != n or T.cols != n:
        raise DimensionMismatch(
            f"transformation is {T.rows}x{T.cols}, algebra has dim {n}"
        )
    try:
        t_inv = T.inverse()
    except ValueError as exc:
        raise SingularTransformation(str(exc)) from exc
    # Column-vector convention: old coords v = T^t x, so x = (T^t)^{-1} v.
    t_t = T.transpose()
    t_inv_t = t_inv.transpose()
    new_field = "Qi" if (L.field == "Qi" or T.field == "Qi") else "Q"
    new_brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    e_old = [T.row(i) for i in range(n)]  # e_i in old coordinates
    for i in range(n):
        for j in range(i + 1, n):
            w = L.bracket(e_old[i], e_old[j])
            if not any(w):
                continue
            coords = t_inv_t.matvec(w)
            coeffs = {k: c for k, c in enumerate(coords) if c}
            if coeffs:
                new_brackets[(i, j)] = coeffs
    new_real = None
    if L.real_structure is not None:
        new_real = t_inv_t.matmul(L.real_structure).matmul(t_t.conj_entrywise())
    elif L.field == "Q" and new_field == "Qi":
        new_real = t_inv_t.matmul(t_t.conj_entrywise())
    return LieAlgebra.from_brackets(
        name=name or f"{L.name}~",
        dim=n,
        brackets=new_brackets,
        field=new_field,
        basis_names=tuple(f"e{i + 1}" for i in range(n)),
        real_structure=new_real,
        check=False,  # Jacobi and involution properties are conjugation-invariant
    )


def verify_isomorphism(L1: LieAlgebra, L2: LieAlgebra, T: ExactMatrix) -> bool:
    """True iff expressing L1 in the basis T gives exactly L2's constants."""
    if L1.dim != L2.dim:
        raise DimensionMismatch(f"dim {L1.dim} vs {L2.dim}")
    return apply_basis_change(L1, T).same_brackets(L2)


def _extend_greedy(base: list[Vector], candidates, ambient: int) -> list[Vector]:
    """Greedily pick candidates that enlarge the span, in the given order."""
    chosen: list[Vector] = []
    span = Subspace.from_spanning(base, ambient_dim=ambient)
    for v in candidates:
        if not span.contains(v):
            chosen.append(tuple(v))
            span = Subspace.from_spanning(
                list(span.vectors()) + [v], ambient_dim=ambient
            )
    return chosen


def _abelian_split(L: LieAlgebra):
    """Deterministic split data: (core basis vectors, central complement)."""
    n = L.dim
    lower_central_series(L)  # raises NotNilpotent early
    z = center(L)
    c1 = commutator_ideal(L)
    zc = z.intersect(c1)
    # Extend a basis of Z n C1 to Z using Z's canonical basis rows.
    central_part = _extend_greedy(list(zc.vectors()), z.vectors(), n)
    if not central_part:
        return None, []
    # Extend C1 + central part to a full complement using standard basis vectors.
    std = []
    for i in range(n):
        e = [Q0] * n
        e[i] = Q1
        std.append(tuple(e))
    base = list(c1.vectors()) + central_part
    complement = _extend_greedy(base, std, n)
    core_vectors = list(c1.vectors()) + complement
    core_space = Subspace.from_spanning(core_vectors, ambient_dim=n)
    assert core_space.dim == n - len(central_part)
    return list(core_space.vectors()), central_part


def abelian_split_transformation(L: LieAlgebra) -> ExactMatrix:
    """Basis matrix whose rows are (core basis, then central complement).

    apply_basis_change(L, T) with this T has the block structure of
    direct_sum(core, abelian(k)).
    """
    core_basis, central_part = _abelian_split(L)
    if core_basis is None:
        return ExactMatrix.identity(L.dim)
    return ExactMatrix(core_basis + central_part, cols=L.dim)


def strip_abelian_factor(L: LieAlgebra) -> tuple[LieAlgebra, int]:
    """Split off the maximal abelian direct factor: L ~ core + R^k.

    k = dim Z - dim(Z n C1); the core is the restriction of L to a
    deterministically chosen complement and satisfies Z(core) <= C1(core).
    """
    n = L.dim
    core_basis, central_part = _abelian_split(L)
    if core_basis is None:
        return L, 0
    k = len(central_part)
    # Express brackets of the core basis in terms of itself.
    m = len(core_basis)
    basis_mat = ExactMatrix(core_basis, cols=n)
    new_brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for i in range(m):
        for j in range(i + 1, m):
            w = L.bracket(core_basis[i], core_basis[j])
            if not any(w):
                continue
            coords = _solve_in_rows(basis_mat, w)
            coeffs = {t: c for t, c in enumerate(coords) if c}
            if coeffs:
                new_brackets[(i, j)] = coeffs
    core_real = None
    if L.real_structure is not None:
        # The canonical complement need not be conjugation stable in general;
        # transport only when it is.
        try:
            imgs = [L.conj_vector(v) for v in core_basis]
            rows = [_solve_in_rows(basis_mat, w) for w in imgs]
            core_real = ExactMatrix(rows, cols=m)
        except ValueError:
            core_real = None
    core = LieAlgebra.from_brackets(
        name=f"{L.name}.core",
        dim=m,
        brackets=new_brackets,
        field=L.field,
        basis_names=tuple(f"c{i + 1}" for i in range(m)),
        real_structure=core_real,
        check=False,
    )
    return core, k


def _solve_in_rows(basis_mat: ExactMatrix, w) -> Vector:
    """Coordinates of w in the row space of basis_mat (raises if outside)."""
    m = basis_mat.rows
    n = basis_mat.cols
    aug = basis_mat.transpose().augment(
        ExactMatrix([[x] for x in w], cols=1)
    )
    red, pivots = aug.rref()
    if m in pivots:
        raise ValueError("vector outside the subspace")
    coords = [Q0] * m
    for r, p in enumerate(pivots):
        coords[p] = red.entries[r][m]
    return tuple(coords)


def direct_sum(L1: LieAlgebra, L2: LieAlgebra) -> LieAlgebra:
    """Block sum: independent brackets on the two summands."""
    if L1.field != L2.field:
        raise FieldMismatch(f"{L1.field} vs {L2.field}")
    n1, n2 = L1.dim, L2.dim
    brackets: dict[tuple[int, int], dict[int, Scalar]] = {
        ij: dict(c) for ij, c in L1.brackets
    }
    for (i, j), coeffs in L2.brackets:
        brackets[(i + n1, j + n1)] = {k + n1: c for k, c in coeffs}
    names = tuple(f"{nm}'" if nm in L1.basis_names else nm for nm in L2.basis_names)
    real = None
    if L1.real_structure is not None and L2.real_structure is not None:
        top = L1.real_structure.augment(ExactMatrix.zeros(n1, n2))
        bottom = ExactMatrix.zeros(n2, n1).augment(L2.real_structure)
        real = top.stack(bottom)
    return LieAlgebra.from_brackets(
        name=f"{L1.name}+{L2.name}",
        dim=n1 + n2,
        brackets=brackets,
        field=L1.field,
        basis_names=L1.basis_names + names,
        real_structure=real,
        check=False,
    )


def abelian(n: int, field: str = "Q", name: str | None = None) -> LieAlgebra:
    real = ExactMatrix.identity(n) if field == "Qi" else None
    return LieAlgebra.from_brackets(
        name=name or f"abelian_{n}",
        dim=n,
        brackets={},
        field=field,
        basis_names=tuple(f"A{i + 1}" for i in range(n)),
        real_structure=real,
        check=False,
    )
