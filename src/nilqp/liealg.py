"""Lie algebras over Q and Q(i) given by structure constants.

An algebra keeps its constants once, as its `StructureTable`: for each
pair i < j with a nonzero bracket, the Gaussian-integer coefficients of
[X_i, X_j] over the least common denominator of all constants, in the
kernel's one row format over both fields (Z[i] rows, whose imaginary parts
are zero over Q).  Antisymmetry is implicit and the Jacobi identity is
enforced by ``validate``, which every public constructor calls.  An
algebra over Q has only rational constants, so it admits a lattice
(Malcev): `LieAlgebra.from_brackets` reads a real `Gaussian` constant
there as its real part and refuses any other.  Algebras over Q(i) may
carry a real structure: an antilinear involution that is also a bracket
automorphism, used for all conjugation-dependent checks.  It is held once
too, one exact vector ``(row, den)`` per row in lowest terms (the form of
``exact.Subspace.rows``), encoded only by `LieAlgebra.from_brackets`.

Brackets, validation, conjugation and changes of basis run on integers.
`structure_table` returns the stored table, and `real_structure_rows` puts
the stored real structure over one denominator.  `validate` checks on them;
`LieAlgebra.bracket` and `LieAlgebra.conj_vector` clear the denominators
of their input, form every product on integers and divide once per result
entry.  `_moved` gives the table (`_moved_table`) and the real structure
in a new basis, in lowest terms, for `apply_basis_change` and
`strip_abelian_factor`; `complexify`, `rename`, `direct_sum` and `abelian`
share or shift the stored rows.  No constructor builds an `ExactMatrix`.
`commutator_ideal`, `lower_central_series` and `center` are computed at
most once per instance, and the series starts from that C^1 = [L, L].

Scalars are made only for the results, by `kernel.decode` on the result's
field, by one rule: a `Gaussian` when the algebra is over Q(i) or an input
entry is a `Gaussian`, and a `Rational` otherwise.  That covers the views
`LieAlgebra.brackets` and `LieAlgebra.real_structure`, decoded on each
read, `bracket_basis`, `bracket`, `conj_vector` and the subspaces' vectors.
"""

from __future__ import annotations

from functools import cache, wraps
from itertools import combinations
from math import gcd
from typing import NamedTuple

from . import kernel
from ._record import Record
from .errors import (
    AlreadyComplex,
    AmbientMismatch,
    DimensionMismatch,
    FieldMismatch,
    InvalidRealStructure,
    JacobiViolation,
    NotNilpotent,
    SingularTransformation,
)
from .exact import ExactMatrix, Subspace, Vector
from .exact import _conjugate, _conjugate_row, _either, _involutive
from .scalars import Gaussian, Scalar, as_scalar

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


def _freeze_brackets(brackets, dim: int, field: str) -> tuple:
    """Canonical sparse form: sorted ((i, j), ((k, c), ...)) with zeros dropped.

    Over Q every constant is a `Rational`: a `Gaussian` with zero imaginary
    part becomes its real part, and any other raises FieldMismatch.
    """
    out = []
    for (i, j), coeffs in brackets.items():
        if not (0 <= i < j < dim):
            raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
        cleaned = []
        for k, c in coeffs.items():
            if not 0 <= k < dim:
                raise ValueError(f"bracket ({i}, {j}) targets invalid index {k}")
            c = as_scalar(c)
            if field == "Q" and type(c) is Gaussian:
                if c.im:
                    raise FieldMismatch(
                        f"bracket ({i}, {j}): coefficient {c} is not rational over Q"
                    )
                c = c.re
            if c:
                cleaned.append((k, c))
        if cleaned:
            out.append(((i, j), tuple(sorted(cleaned))))
    return tuple(sorted(out))


def _checked_shape(dim: int, field: str, basis_names) -> tuple[str, ...]:
    """``basis_names`` as a tuple, once ``dim`` >= 0, ``field`` and their number are checked."""
    if dim < 0:
        raise ValueError(f"dimension {dim} must be >= 0")
    if field not in ("Q", "Qi"):
        raise ValueError(f"field must be 'Q' or 'Qi', not {field!r}")
    names = tuple(basis_names)
    if len(names) != dim:
        raise ValueError(f"basis must list {dim} names, not {len(names)}")
    return names


class LieAlgebra(Record):
    """A Lie algebra whose constants are held once, as its `StructureTable`.

    `brackets` is a view of the table, decoded on each read and never kept,
    and `real_structure` one of ``real_rows``, S's rows as exact vectors in
    lowest terms.  Two algebras are equal, and hash alike, exactly when
    their names, basis, field, constants and real structure are.
    """

    _fields = ("name", "dim", "field", "basis_names", "table", "real_rows")

    def __init__(
        self,
        name: str,
        dim: int,
        field: str,  # "Q" | "Qi"
        basis_names: tuple[str, ...],
        table: StructureTable,  # the one stored form of the constants
        real_rows: tuple[tuple[kernel.ZiRow, int], ...] | None = None,  # S, row by row
    ):
        self._store(name, dim, field, basis_names, table, real_rows)
        # Facts derived from the constants, by function name (see `_fact`):
        # computed at most once per instance, as the algebra is immutable.
        object.__setattr__(self, "_facts", {})

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
            basis_names = (f"X{i + 1}" for i in range(dim))
        alg = cls(
            name=name,
            dim=dim,
            field=field,
            basis_names=_checked_shape(dim, field, basis_names),
            table=_encoded(_freeze_brackets(brackets, dim, field), field),
            real_rows=(
                None if real_structure is None else _real_rows(name, dim, real_structure, field)
            ),
        )
        if check:
            validate(alg)
        return alg

    def __hash__(self):
        rows = frozenset(self.table.rows.items())
        real = self.real_rows and tuple((frozenset(r.items()), d) for r, d in self.real_rows)
        return hash((self.name, self.dim, self.field, self.basis_names, self.table.den, rows, real))

    @property
    def real_structure(self) -> ExactMatrix | None:
        """S decoded from ``real_rows`` on each read over the algebra's field; None if not given."""
        if self.real_rows is None:
            return None
        return ExactMatrix._from_rows(self.real_rows, self.dim, self.field)

    @property
    def brackets(self) -> tuple:
        """The constants in `_freeze_brackets`' form, decoded from the table on each read.

        They are `Gaussian` over Q(i) and `Rational` over Q, whatever type
        they were entered as.
        """
        out = []
        for ij, row in self.table.rows.items():
            ks, pairs = zip(*row)
            entries = kernel.decode(dict(enumerate(pairs)), self.table.den, len(ks), self.field)
            out.append((ij, tuple(zip(ks, entries))))
        return tuple(out)

    # -- bracket evaluation -------------------------------------------------

    def bracket_map(self) -> BracketMap:
        return {ij: dict(coeffs) for ij, coeffs in self.brackets}

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[X_i, X_j] as a coordinate vector: the `bracket` of two unit vectors.

        Raises IndexError unless both indices lie in 0..dim-1.
        """
        n = self.dim
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"basis indices ({i}, {j}) out of range 0..{n - 1}")
        e = [[int(k == t) for k in range(n)] for t in (i, j)]
        return self.bracket(*e)

    def bracket(self, u, v) -> Vector:
        """Bilinear extension of the bracket to coordinate vectors.

        The product is formed on `structure_table`: u and v are cleared of
        one common denominator (`kernel.zi_rows`), every term is a Z[i]
        product, and each entry is divided once by the product of the three
        denominators (`kernel.decode`), over Q(i) when L is or u or v holds a
        `Gaussian`.  Raises AmbientMismatch unless both have length dim.
        """
        uu, vv = tuple(u), tuple(v)
        (ru, rv), den, field = kernel.zi_rows([uu, vv])
        n = self.dim
        if len(uu) != n or len(vv) != n:
            raise AmbientMismatch(
                f"bracket of vectors of lengths {len(uu)} and {len(vv)} in dimension {n}"
            )
        table = structure_table(self)
        us, vs = ([r.get(j, (0, 0)) for j in range(n)] for r in (ru, rv))
        w = _zi_bracket(table.rows, us, vs, n)
        return kernel.decode(w, den * den * table.den, n, _either(field, table.field))

    def conj_vector(self, v) -> Vector:
        """Antilinear conjugation v -> S * conj(v), S = I over Q, on `real_structure_rows`."""
        if self.field == "Qi" and self.real_rows is None:
            raise InvalidRealStructure(f"{self.name}: no real structure available")
        return _conjugate(*real_structure_rows(self), v, self.field)

    def is_abelian(self) -> bool:
        return not self.table.rows

    def rename(self, name: str) -> "LieAlgebra":
        return LieAlgebra(name, self.dim, self.field, self.basis_names, self.table, self.real_rows)

    def same_brackets(self, other: "LieAlgebra") -> bool:
        """Equal constants, over either field: the tables are in lowest terms."""
        return self.dim == other.dim and self.table[1:] == other.table[1:]


class ValidationReport(NamedTuple):
    valid: bool
    lattice_admissible: bool
    has_real_structure: bool
    dim: int
    name: str


class LowerCentralSeries(NamedTuple):
    terms: tuple[Subspace, ...]  # C^0 = full >= C^1 >= ... >= C^t = 0
    nilpotency_class: int


def validate(L: LieAlgebra) -> ValidationReport:
    """Check the Jacobi identity on all basis triples and the real structure.

    Raises JacobiViolation or InvalidRealStructure; on success reports lattice
    admissibility (true over Q: rational structure constants admit a lattice).
    Jacobi runs on `_ad` of each bracket [X_i, X_j], taken once, and a
    failure reports that integer residual, decoded on L's field; S *
    conj(S) = I and S conj[X_i, X_j] = [S X_i, S X_j] on
    `real_structure_rows`, whenever S is given.  Over Q, S must then also
    be the identity, the only real structure read there.
    """
    n = L.dim
    for i, j in L.table.rows:
        if not (0 <= i < j < n):
            raise ValueError(f"{L.name}: bad bracket key ({i}, {j})")
    # Jacobi: [[Xi,Xj],Xk] + [[Xj,Xk],Xi] + [[Xk,Xi],Xj] = 0, that is
    # -[Xk, w_ij] - [Xi, w_jk] + [Xj, w_ik] = 0 with w_ab = [Xa, Xb].
    table = structure_table(L)
    table_rows = table.rows
    ads = {ab: _ad(table_rows, dict(row), n) for ab, row in table_rows.items()}
    for i, j, k in combinations(range(n), 3):
        residual = [0] * (2 * n)
        for sign, ab, s in ((-1, (i, j), k), (-1, (j, k), i), (1, (i, k), j)):
            parts = ads.get(ab, {}).get(s)
            if parts is not None:
                for t, x in enumerate(parts[0] + parts[1]):
                    residual[t] += sign * x
        if any(residual):
            # `_ad` of a table row is a bracket of two constants, so the
            # residual is over the table's denominator squared.
            row = {t: (x, y) for t, (x, y) in enumerate(zip(residual[:n], residual[n:])) if x or y}
            raise JacobiViolation(i, j, k, kernel.decode(row, table.den**2, n, L.field))
    if L.real_rows is not None:
        s_rows, s_den = real_structure_rows(L)
        if not _involutive(s_rows, s_den):
            raise InvalidRealStructure(
                f"{L.name}: real structure is not an antilinear involution"
            )
        s_cols = [[row.get(j, (0, 0)) for row in s_rows] for j in range(n)]
        for i, j in combinations(range(n), 2):
            # Both sides over the table's denominator times s_den^2.
            row = dict(table_rows.get((i, j), ()))
            lhs = kernel.zi_combine(((s_den, 0), _conjugate_row(s_rows, row)))
            if lhs != _zi_bracket(table_rows, s_cols[i], s_cols[j], n):
                raise InvalidRealStructure(
                    f"{L.name}: conjugation is not a bracket automorphism "
                    f"on pair ({i}, {j})"
                )
        # Over Q the complexification and the search conjugate by the
        # identity, so any other S would be accepted and never read.
        if L.field == "Q" and L.real_rows != _identity(n):
            raise InvalidRealStructure(
                f"{L.name}: a real structure over Q must be the identity"
            )
    return ValidationReport(
        valid=True,
        lattice_admissible=(L.field == "Q"),
        has_real_structure=L.real_rows is not None or L.field == "Q",
        dim=n,
        name=L.name,
    )


class StructureTable(NamedTuple):
    """The structure constants as Gaussian integers over their least common denominator.

    ``rows[i, j]`` holds [X_i, X_j] = sum (re + im*i) / den X_k as the
    pairs ``((k, (re, im)), ...)``, k ascending and no pair zero, for each
    nonzero bracket with i < j, in ascending (i, j).  Both fields share
    it: over "Q" every ``im`` is zero.  An algebra's table is its one
    stored form of the constants, and its field is the algebra's; being
    in lowest terms, equal constants give equal tables.  Within one table,
    equal pairs and equal (k, pair) entries are one object, shared by
    `_lowest_table`, which builds every table, and no row is changed in place.
    """

    field: str
    den: int
    rows: dict


def _fact(fn):
    """``fn(L)`` computed at most once per algebra, kept in ``L._facts`` under fn's name."""
    name = fn.__name__

    @wraps(fn)
    def fact(L: LieAlgebra):
        value = L._facts.get(name)
        if value is None:
            value = L._facts[name] = fn(L)
        return value

    return fact


def structure_table(L: LieAlgebra) -> StructureTable:
    """L's `StructureTable`, the one form in which L keeps its constants."""
    return L.table


def _encoded(frozen: tuple, field: str) -> StructureTable:
    """The `StructureTable` over ``field`` of constants in `_freeze_brackets`' form."""
    # One row of every constant: none is zero, so the row holds each in order.
    (row,), den, _ = kernel.zi_rows([[c for _, coeffs in frozen for _, c in coeffs]])
    it = iter(row.values())
    return _lowest_table(field, den, {ij: [(k, next(it)) for k, _ in cs] for ij, cs in frozen})


def _real_rows(
    name: str, n: int, s: ExactMatrix, field: str
) -> tuple[tuple[kernel.ZiRow, int], ...]:
    """The n x n matrix S as one exact vector per row, in lowest terms: `LieAlgebra.real_rows`."""
    if s.rows != n or s.cols != n:
        raise InvalidRealStructure(f"{name}: real structure has wrong shape")
    # Over Q, as for the constants, S is real: `validate` asks for the identity.
    if field == "Q" and any(y for row, _ in s.exact_rows for _, y in row.values()):
        raise InvalidRealStructure(f"{name}: a real structure over Q must be the identity")
    return s.exact_rows


def real_structure_rows(L: LieAlgebra) -> tuple[list[kernel.ZiRow], int]:
    """L's real structure S (the identity if none), its rows over one denominator, not kept."""
    return kernel.zi_common(_identity(L.dim) if L.real_rows is None else L.real_rows)


@cache
def _identity(n: int) -> tuple[tuple[kernel.ZiRow, int], ...]:
    """The identity's rows as exact vectors: one tuple per dimension; no reader changes a row."""
    return tuple(({j: (1, 0)}, 1) for j in range(n))


def _zi_bracket(rows: dict, u: list, v: list, n: int) -> kernel.ZiRow:
    """The bracket of dense Z[i] pair vectors on the ``rows`` of a table, as a sparse Z[i] row.

    Each row [X_i, X_j] is met once, scaled by u_i v_j - u_j v_i.
    """
    re = [0] * n
    im = [0] * n
    for (i, j), row in rows.items():
        (a, b), (c, d) = u[i], v[j]
        (e, f), (g, h) = u[j], v[i]
        x = a * c - b * d - e * g + f * h
        y = a * d + b * c - e * h - f * g
        if x or y:
            for k, (p, q) in row:
                re[k] += x * p - y * q
                im[k] += x * q + y * p
    return {k: (x, y) for k, (x, y) in enumerate(zip(re, im)) if x or y}


def _pair_brackets(table: StructureTable, rows: list, n: int):
    """``bracket(s, t)``: [rows[s], rows[t]] as `_zi_bracket` forms it, each conjugate pair once.

    ``rows`` are Z[i] rows of length ``n``.  On a real table, one whose
    every imaginary part is zero, the constants are their own conjugates.
    So when conj rows[s] = sigma_s rows[s'] and conj rows[t] = sigma_t
    rows[t'], sigma = +-1, then [rows[s'], rows[t']] = sigma_s sigma_t conj
    [rows[s], rows[t]].  A pair whose conjugate pair was bracketed before is
    read off that bracket: conjugated, times sigma_s sigma_t, and negated
    when the conjugate pair came in the other order.  Every other pair is
    formed on the table.  A row that is its own conjugate, or minus it, is
    its own mirror.
    """
    mirror: dict[int, tuple[int, int]] = {}
    if table.field == "Q" or not any(y for row in table.rows.values() for _, (_, y) in row):
        position = {frozenset(row.items()): s for s, row in enumerate(rows)}
        for s, row in enumerate(rows):
            for sign in (1, -1):
                conj = frozenset((j, (sign * x, -sign * y)) for j, (x, y) in row.items())
                t = position.get(conj)
                if t is not None:
                    mirror[s] = (t, sign)
                    break
    dense: dict[int, list] = {}
    formed: dict[tuple[int, int], kernel.ZiRow] = {}

    def bracket(s: int, t: int) -> kernel.ZiRow:
        ms, sign_s = mirror.get(s, (None, 1))
        mt, sign_t = mirror.get(t, (None, 1))
        if (ms, mt) in formed:
            w, sign = formed[ms, mt], sign_s * sign_t
        elif (mt, ms) in formed:
            w, sign = formed[mt, ms], -sign_s * sign_t
        else:
            for r in (s, t):
                if r not in dense:
                    dense[r] = [rows[r].get(j, (0, 0)) for j in range(n)]
            w = formed[s, t] = _zi_bracket(table.rows, dense[s], dense[t], n)
            return w
        w = {k: (sign * x, -sign * y) for k, (x, y) in w.items()}
        formed[s, t] = w
        return w

    return bracket


def _bracket_span(L: LieAlgebra, sub: Subspace) -> Subspace:
    """Span of [X_s, w] over all basis vectors X_s and w in the subspace.

    Each basis row w of ``sub`` takes its brackets from `_ad`, the one pass
    over the rows of `structure_table` that verification's centrality test
    `_is_central` also makes.  The rows go to the span in the order of w,
    then of s.  The span is over L's field.
    """
    n = L.dim
    table_rows = structure_table(L).rows
    rows = []
    for w, _ in sub.rows:
        ad = _ad(table_rows, w, n)
        for s in sorted(ad):
            re, im = ad[s]
            rows.append({k: (x, y) for k, (x, y) in enumerate(zip(re, im)) if x or y})
    return Subspace._span(rows, n, L.field)


@_fact
def lower_central_series(L: LieAlgebra) -> LowerCentralSeries:
    """C^0 = L, C^1 = `commutator_ideal`, C^{k+1} = [L, C^k].

    Raises NotNilpotent if the series stabilizes above 0.  C^0 is one
    `Subspace.full(n)` per dimension n, shared by every algebra of it.
    """
    terms = [_whole_space(L.dim)]
    while terms[-1].dim > 0:
        nxt = _bracket_span(L, terms[-1]) if len(terms) > 1 else commutator_ideal(L)
        if nxt.dim == terms[-1].dim:
            raise NotNilpotent(nxt.dim)
        terms.append(nxt)
    return LowerCentralSeries(terms=tuple(terms), nilpotency_class=len(terms) - 1)


@cache
def _whole_space(n: int) -> Subspace:
    """`Subspace.full(n)`, made once per dimension n; no reader changes a subspace's rows."""
    return Subspace.full(n)


@_fact
def center(L: LieAlgebra) -> Subspace:
    """{v : [X_i, v] = 0 for all i}: the `_center_rows` of `structure_table` at C^1's pivots.

    Every [X_i, v] lies in C^1 = `commutator_ideal`, and a vector of C^1 is
    zero exactly when its entries at the pivot columns of C^1's reduced
    basis are, since each basis row is zero at the other rows' pivots.  So
    the equations at those columns alone have the same null space.
    """
    pivots = {min(row) for row, _ in commutator_ideal(L).rows}
    return Subspace(L.dim, L.field, _center_rows(structure_table(L), L.dim, pivots))


def _center_rows(table: StructureTable, n: int, pivots) -> list[tuple[kernel.ZiRow, int]]:
    """The center of the dimension-``n`` algebra of ``table``: one null space of stacked ad.

    Row (i, k) of the stack M holds, at column j, the X_k-coefficient of
    [X_j, X_i], read off the table's rows; `kernel.null_space` reduces
    [M^T | I], whose row j is ad(X_j) flattened, then e_j, and returns the
    center's reduced basis as exact vectors in pivot order.  Only the
    columns k in ``pivots`` give rows: they must be columns at which a
    vector of the span of the constants is zero only when it is zero, such
    as the pivot columns of C^1's reduced basis, or every column that some
    constant reaches.
    """
    stacked: dict[tuple[int, int], dict] = {}
    for (i, j), row in table.rows.items():
        for k, (x, y) in row:
            if k in pivots:
                # [X_i, X_j] = -[X_j, X_i]
                stacked.setdefault((j, k), {})[i] = (x, y)
                stacked.setdefault((i, k), {})[j] = (-x, -y)
    return kernel.null_space(list(stacked.values()), n, table.field)


def _ad(table_rows: dict, x: kernel.ZiRow, n: int) -> dict[int, tuple[list[int], list[int]]]:
    """Each nonzero [X_s, x] by s, as dense real and imaginary parts, on the ``rows`` of a table.

    One pass over the rows: a row [X_i, X_j], i < j, adds x_j [X_i, X_j]
    to [X_i, x] and -x_i [X_i, X_j] to [X_j, x], each summed on two lists
    of ``n`` ints.  It reads the table alone, none of the subspaces derived
    from it.  Its callers: `_bracket_span` (the series), `_is_central`
    (verification), `validate` (Jacobi, on each bracket [X_i, X_j]) and
    `cohomology._commutator_adapted_table` (on each row of C^1).
    """
    re: dict[int, list[int]] = {}
    im: dict[int, list[int]] = {}
    for (i, j), row in table_rows.items():
        e = x.get(j)
        if e is not None:
            if i not in re:
                re[i], im[i] = [0] * n, [0] * n
            rr, ri = re[i], im[i]
            a, b = e
            for k, (p, q) in row:
                rr[k] += a * p - b * q
                ri[k] += a * q + b * p
        e = x.get(i)
        if e is not None:
            if j not in re:
                re[j], im[j] = [0] * n, [0] * n
            rr, ri = re[j], im[j]
            a, b = e
            for k, (p, q) in row:
                rr[k] -= a * p - b * q
                ri[k] -= a * q + b * p
    return {s: (rr, im[s]) for s, rr in re.items() if any(rr) or any(im[s])}


def _is_central(table_rows: dict, x: kernel.ZiRow, n: int) -> bool:
    """Whether [X_s, x] = 0 for every basis vector X_s: `_ad` of x on the table's ``rows`` is empty.

    The same pass that `_bracket_span` reads the lower central series from.
    """
    return not _ad(table_rows, x, n)


@_fact
def commutator_ideal(L: LieAlgebra) -> Subspace:
    """C^1 L = span of all [X_i, X_j] over L's field, read off the rows of `structure_table`."""
    rows = [dict(row) for row in structure_table(L).rows.values()]
    return Subspace._span(rows, L.dim, L.field)


def complexify(L: LieAlgebra) -> LieAlgebra:
    """Same structure constants over Q(i), with entrywise conjugation.

    The new table shares the rows of L's: a rational table in lowest terms
    is one over Q(i) too.  Its `brackets` read as `Gaussian`.
    """
    if L.field == "Qi":
        raise AlreadyComplex(f"{L.name} is already over Q(i)")
    # Jacobi is field-independent and conjugation is entrywise: nothing to validate.
    table = L.table._replace(field="Qi")
    return LieAlgebra(f"{L.name}(C)", L.dim, "Qi", L.basis_names, table, _identity(L.dim))


def apply_basis_change(L: LieAlgebra, T: ExactMatrix, name: str | None = None) -> LieAlgebra:
    """Express the algebra in the new basis e_i = sum_j T[i][j] X_j.

    The real structure is transported through T.  Raises
    SingularTransformation when T is not invertible.

    The new algebra keeps the table and the real structure of `_moved` as
    they come; its field is Q(i) when L or T is.  Jacobi and the involution
    properties are conjugation-invariant, so nothing is validated again.
    """
    n = L.dim
    if T.rows != n or T.cols != n:
        raise DimensionMismatch(f"transformation is {T.rows}x{T.cols}, algebra has dim {n}")
    table, real = _moved(L, *kernel.zi_common(T.exact_rows), T.field)
    return LieAlgebra(name or f"{L.name}~", n, table.field, _moved_names(n), table, real)


def _moved(L: LieAlgebra, e: list, t_den: int, t_field: str):
    """`_moved_table` for T = ``e`` / ``t_den``, and S moved to (T^t)^-1 S conj(T)^t.

    S is the identity when L has none.  The new S is in lowest terms, or
    None when L has none and the field stays.
    """
    n = L.dim
    table, inv, inv_den = _moved_table(L, e, t_den, t_field)
    if L.real_rows is None and table.field == L.field:
        return table, None
    # Column j of the new S is the new coordinates of S conj(e_j), over
    # s_den * inv_den.  Over Q, S is the identity and the rows are real.
    s_rows, s_den = real_structure_rows(L)
    cols = [_coords(inv, _conjugate_row(s_rows, row)) for row in e]
    rows = ({c: col[r] for c, col in enumerate(cols) if r in col} for r in range(n))
    return table, tuple(kernel.zi_lowest(row, s_den * inv_den) for row in rows)


@cache
def _moved_names(n: int) -> tuple[str, ...]:
    """("e1", ..., "en"): one tuple per dimension, shared by every moved algebra of it."""
    return tuple(f"e{i + 1}" for i in range(n))


def _moved_table(L: LieAlgebra, e: list, t_den: int, t_field: str):
    """L's `StructureTable` in the basis T = ``e`` / ``t_den``, Z[i] rows over ``t_field``.

    Returns ``(table, inv, inv_den)``, T^-1 = t_den * inv / inv_den, or raises
    SingularTransformation.  The rows of T are bracketed on `structure_table`
    and mapped by ``inv``.  In lowest terms and over Q(i) when L or T is,
    the table is `structure_table` of `apply_basis_change`'s algebra.
    """
    n = L.dim
    solved = kernel.zi_solve(e, [row for row, _ in _identity(n)])
    if solved is None:
        raise SingularTransformation("matrix is singular")
    inv, inv_den = solved  # e^-1 = inv / inv_den
    old = structure_table(L)
    dense = [[row.get(j, (0, 0)) for j in range(n)] for row in e]
    rows = {}  # by pair (i, j), each new constant times t_den * old.den * inv_den
    for i, j in combinations(range(n), 2):
        w = _coords(inv, _zi_bracket(old.rows, dense[i], dense[j], n))
        if w:
            rows[i, j] = sorted(w.items())
    field = "Qi" if "Qi" in (old.field, t_field) else "Q"
    return _lowest_table(field, t_den * old.den * inv_den, rows), inv, inv_den


def _lowest_table(field: str, d: int, rows: dict) -> StructureTable:
    """The `StructureTable` of the constants ``rows`` over ``d``, in lowest terms.

    ``rows[i, j]`` lists [X_i, X_j] times ``d`` as pairs (k, (re, im)), k
    ascending and none zero.  The denominator becomes the least one of all
    constants (1 when there is none), so equal constants give equal tables.
    Equal pairs and equal (k, pair) entries are one tuple each, through dicts
    local to the call: per table, never process-wide; no reader changes a row.
    """
    g = gcd(d, *(x for row in rows.values() for _, pair in row for x in pair))
    pairs, entries, out = {}, {}, {}
    for ij, row in rows.items():
        kept = []
        for k, (x, y) in row:
            pair = (x // g, y // g)
            entry = (k, pairs.setdefault(pair, pair))
            kept.append(entries.setdefault(entry, entry))
        out[ij] = tuple(kept)
    return StructureTable(field, d // g, out)


def _coords(inv: list, w: kernel.ZiRow) -> kernel.ZiRow:
    """inv_den times the new coordinates (T^t)^-1 w = w e^-1, e^-1 = ``inv`` / inv_den."""
    return kernel.zi_combine(*((c, inv[l]) for l, c in w.items()))


def _real_form(name: str, table: StructureTable, basis_names) -> LieAlgebra | None:
    """The algebra over Q with the constants of a table over Q(i), None if one is not real."""
    if any(y for row in table.rows.values() for _, (_, y) in row):
        return None
    return LieAlgebra(name, len(basis_names), "Q", basis_names, table._replace(field="Q"))


def verify_isomorphism(L1: LieAlgebra, L2: LieAlgebra, T: ExactMatrix) -> bool:
    """True iff expressing L1 in the basis T gives exactly L2's constants."""
    if L1.dim != L2.dim:
        raise DimensionMismatch(f"dim {L1.dim} vs {L2.dim}")
    return apply_basis_change(L1, T).same_brackets(L2)


def _abelian_split(L: LieAlgebra):
    """Deterministic split data: (core basis, central complement), as exact vectors.

    Each extension is greedy, in order, on an echelon of the kernel's Z[i] rows.
    """
    n = L.dim
    lower_central_series(L)  # raises NotNilpotent early
    z, c1 = center(L), commutator_ideal(L)
    # Z's canonical basis rows that leave C1 + the rows before them: for z in
    # Z and S in Z, z lies in C1 + S exactly when it lies in (Z n C1) + S,
    # so they extend a basis of Z n C1 to one of Z.
    echelon = c1.echelon()
    central = [i for i, (row, _) in enumerate(z.rows) if kernel.zi_insert(echelon, row)]
    if not central:
        return None, []
    # Extend C1 + central part to a full complement using standard basis vectors.
    complement = [j for j in range(n) if kernel.zi_insert(echelon, {j: (1, 0)})]
    rows = [row for row, _ in c1.rows] + [{j: (1, 0)} for j in complement]
    core = Subspace._span(rows, n, c1.field)
    assert core.dim == n - len(central)
    return core.rows, [z.rows[i] for i in central]


def abelian_split_transformation(L: LieAlgebra) -> ExactMatrix:
    """Basis matrix whose rows are (core basis, then central complement).

    apply_basis_change(L, T) with this T has the block structure of
    direct_sum(core, abelian(k)).
    """
    core_rows, central = _abelian_split(L)
    if core_rows is None:
        return ExactMatrix.identity(L.dim)
    return ExactMatrix._from_rows(core_rows + central, L.dim, L.field)


def strip_abelian_factor(L: LieAlgebra) -> tuple[LieAlgebra, int]:
    """Split off the maximal abelian direct factor: L ~ core + R^k.

    k = dim Z - dim(Z n C1); the core is the restriction of L to a
    deterministically chosen complement and satisfies Z(core) <= C1(core).
    It is read off L in the basis of `abelian_split_transformation`: the
    first m vectors span the core, which holds their brackets, and the last
    k are central, with L moved on the split's exact vectors (`_moved`).
    The real structure is kept when it maps the core into itself, as the
    core's block of the transported one.
    """
    core_rows, central = _abelian_split(L)
    if core_rows is None:
        return L, 0
    m = len(core_rows)
    table, s = _moved(L, *kernel.zi_common(core_rows + central), L.field)
    core_real = None
    if s is not None and not any(j < m for row, _ in s[m:] for j in row):
        core_real = tuple(
            kernel.zi_lowest({j: e for j, e in row.items() if j < m}, den) for row, den in s[:m]
        )
    # The central vectors bracket to zero, so every row is a pair of the core.
    core_names = tuple(f"c{i + 1}" for i in range(m))
    core = LieAlgebra(f"{L.name}.core", m, table.field, core_names, table, core_real)
    return core, len(central)


def direct_sum(L1: LieAlgebra, L2: LieAlgebra) -> LieAlgebra:
    """Block sum: independent brackets on the two summands."""
    if L1.field != L2.field:
        raise FieldMismatch(f"{L1.field} vs {L2.field}")
    n1, n2 = L1.dim, L2.dim
    t1, t2 = L1.table, L2.table
    # Both summands over the product of their denominators, then lowest terms.
    rows = {
        ij: [(k, (x * t2.den, y * t2.den)) for k, (x, y) in row] for ij, row in t1.rows.items()
    }
    for (i, j), row in t2.rows.items():
        rows[i + n1, j + n1] = [(k + n1, (x * t1.den, y * t1.den)) for k, (x, y) in row]
    names = tuple(f"{nm}'" if nm in L1.basis_names else nm for nm in L2.basis_names)
    real = None
    if L1.real_rows is not None and L2.real_rows is not None:
        real = L1.real_rows + tuple(({j + n1: e for j, e in r.items()}, d) for r, d in L2.real_rows)
    table = _lowest_table(L1.field, t1.den * t2.den, rows)
    names = L1.basis_names + names
    return LieAlgebra(f"{L1.name}+{L2.name}", n1 + n2, L1.field, names, table, real)


def abelian(n: int, field: str = "Q", name: str | None = None) -> LieAlgebra:
    return LieAlgebra(
        name or f"abelian_{n}", n, field, _checked_shape(n, field, (f"A{i + 1}" for i in range(n))),
        _lowest_table(field, 1, {}), _identity(n) if field == "Qi" else None,
    )
