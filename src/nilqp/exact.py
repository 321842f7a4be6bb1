"""Exact matrices and canonical subspaces over Q and Q(i).

A matrix is immutable, over "Q" or "Qi", and keeps its rows once as the
kernel's exact vectors ``(row, den)`` in lowest terms: products, inverses
and eliminations run on them, and scalars are made only when a caller
reads the entries.  A subspace holds its reduced-row-echelon basis, which
is unique, as the same exact vectors, so equal subspaces are structurally
equal objects; sums, meets and containments run on those vectors, and
scalars are made only when a caller reads the basis.

On a real structure's Z[i] rows, `_conjugate_row` is the one S * conj(x),
and `_involutive` the one test of S * conj(S) = I.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import kernel
from .errors import AmbientMismatch, NotInvolution
from .scalars import Scalar, format_scalar

__all__ = [
    "ExactMatrix",
    "RowReducer",
    "Subspace",
    "rref_rank",
    "kernel_basis",
    "subspace_sum_intersect",
    "conjugate_vector",
    "Vector",
]

Vector = tuple[Scalar, ...]

class ExactMatrix:
    """Immutable matrix over Q or Q(i), kept once as exact Z[i] rows.

    ``exact_rows`` holds each row as an exact vector ``(row, den)`` in
    lowest terms, as `Subspace.rows` does, so equal matrices hold equal rows
    over either field.  ``field`` is "Qi" when an entry was entered as a
    `Gaussian` or an operand of a product, stack or augment is over Q(i).
    `entries`, `row`, `column` and ``m[i, j]`` are decoded on each read by
    the field; every operation runs on the rows.
    """

    __slots__ = ("rows", "cols", "field", "exact_rows")

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        grid = tuple(map(tuple, entries))
        rows, den, field = kernel.zi_rows(grid)
        if grid:
            cols = len(grid[0])
            if any(len(r) != cols for r in grid):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self._fill([(row, den) for row in rows], cols, field)

    @classmethod
    def _from_rows(cls, vectors, cols: int, field: str) -> "ExactMatrix":
        """The matrix over ``field`` with one exact vector ``(row, den)`` per row."""
        m = object.__new__(cls)
        m._fill(vectors, cols, field)
        return m

    def _fill(self, vectors, cols: int, field: str) -> None:
        """Store ``vectors``, each put in lowest terms (`kernel.zi_lowest`)."""
        exact = tuple(kernel.zi_lowest(*v) for v in vectors)
        for name, value in zip(self.__slots__, (len(exact), cols, field, exact)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls._from_rows([({j: (1, 0)}, 1) for j in range(n)], n, "Q")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls._from_rows([({}, 1)] * rows, cols, "Q")

    @classmethod
    def empty(cls, cols: int, field: str = "Q") -> "ExactMatrix":
        """The matrix with no rows over ``field``, which no entry can carry."""
        return cls._from_rows([], cols, field)

    # -- basics --------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.cols, self.exact_rows) == (other.cols, other.exact_rows)

    def __hash__(self):
        return hash((self.cols, tuple((frozenset(r.items()), d) for r, d in self.exact_rows)))

    @property
    def entries(self) -> tuple[Vector, ...]:
        """The rows as scalars over the matrix's field, decoded on each read."""
        return tuple(kernel.decode(row, den, self.cols, self.field) for row, den in self.exact_rows)

    def __getitem__(self, idx: tuple[int, int]) -> Scalar:
        i, j = idx
        return self.row(i)[j]

    def row(self, i: int) -> Vector:
        return kernel.decode(*self.exact_rows[i], self.cols, self.field)

    def column(self, j: int) -> Vector:
        return self.transpose().row(j)

    def __repr__(self):
        body = "; ".join(" ".join(map(format_scalar, row)) for row in self.entries)
        return f"ExactMatrix({self.rows}x{self.cols} [{body}])"

    def is_zero(self) -> bool:
        return not any(row for row, _ in self.exact_rows)

    # -- algebra ---------------------------------------------------------------

    def transpose(self) -> "ExactMatrix":
        rows, den = kernel.zi_common(self.exact_rows)
        out: list[kernel.ZiRow] = [{} for _ in range(self.cols)]
        for i, row in enumerate(rows):
            for j, e in row.items():
                out[j][i] = e
        return ExactMatrix._from_rows([(row, den) for row in out], self.rows, self.field)

    def stack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.cols:
            raise AmbientMismatch(f"cannot stack {self.cols} with {other.cols} columns")
        field = _either(self.field, other.field)
        return ExactMatrix._from_rows(self.exact_rows + other.exact_rows, self.cols, field)

    def augment(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.rows != other.rows:
            raise AmbientMismatch("row count mismatch in augment")
        out = []
        for left, (row, den) in zip(self.exact_rows, other.exact_rows):
            (a, b), d = kernel.zi_common([left, ({self.cols + j: e for j, e in row.items()}, den)])
            out.append(({**a, **b}, d))
        return ExactMatrix._from_rows(out, self.cols + other.cols, _either(self.field, other.field))

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise AmbientMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        a, da = kernel.zi_common(self.exact_rows)
        b, db = kernel.zi_common(other.exact_rows)
        out = [(row, da * db) for row in kernel.zi_matmul(a, b)]
        return ExactMatrix._from_rows(out, other.cols, _either(self.field, other.field))

    def matvec(self, v: Sequence) -> Vector:
        """The product with v, `Gaussian` when the matrix is over Q(i) or v holds a `Gaussian`."""
        if len(v) != self.cols:
            raise AmbientMismatch("vector length mismatch in matvec")
        rows, den = kernel.zi_common(self.exact_rows)
        return _apply(kernel.zi_matvec, rows, den, kernel.zi_rows([v]), self.field)

    # -- elimination ------------------------------------------------------------

    def rref(self) -> tuple["ExactMatrix", list[int]]:
        """Unique reduced row echelon form and its pivot columns."""
        space = kernel.span([row for row, _ in self.exact_rows], self.cols, self.field)
        red = space + [({}, 1)] * (self.rows - len(space))
        return ExactMatrix._from_rows(red, self.cols, self.field), [min(row) for row, _ in space]

    def rank(self) -> int:
        return kernel.rank([row for row, _ in self.exact_rows], self.cols, self.field)

    def inverse(self) -> "ExactMatrix":
        """Inverse of a square matrix, a / den, as a^-1 (den I); raises ValueError when singular."""
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        a, den = kernel.zi_common(self.exact_rows)
        solved = kernel.zi_solve(a, [{j: (den, 0)} for j in range(self.rows)])
        if solved is None:
            raise ValueError("matrix is singular")
        rows, d = solved
        return ExactMatrix._from_rows([(row, d) for row in rows], self.cols, self.field)


def _either(*fields: str) -> str:
    """"Qi" when any of ``fields`` is, else "Q"."""
    return "Qi" if "Qi" in fields else "Q"


def _apply(step, rows: list[kernel.ZiRow], den: int, encoded: tuple, field: str) -> Vector:
    """``step(rows, x) / (den * dx)`` for ``encoded`` = `kernel.zi_rows` of a vector x / dx.

    The result is over "Qi" when ``field`` or the vector's field is.
    """
    (x,), dx, x_field = encoded
    return kernel.decode(step(rows, x), den * dx, len(rows), _either(field, x_field))


def rref_rank(m: ExactMatrix) -> tuple[ExactMatrix, int]:
    """Reduced row echelon form together with the rank."""
    red, pivots = m.rref()
    return red, len(pivots)


def kernel_basis(m: ExactMatrix) -> "Subspace":
    """Null space of ``m`` acting on column vectors, as a canonical subspace."""
    return Subspace.null_space([row for row, _ in m.exact_rows], m.cols, m.field)


class Subspace:
    """Row space with a canonical basis; equality is structural.

    ``rows`` is the reduced row echelon basis as the kernel's exact vectors
    ``(row, den)`` (`kernel.span`): Z[i] rows over both fields, with zero
    imaginary parts over "Q", in lowest terms and in pivot order, each row's
    pivot its smallest column.  The zero space is over "Q".  `basis` and
    `vectors` decode the rows (`kernel.decode`) into scalars, `Rational`
    over "Q" and `Gaussian` over "Qi", only when asked.
    """

    __slots__ = ("ambient_dim", "field", "rows")

    def __init__(self, ambient_dim: int, field: str, rows: list[tuple[dict, int]]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "field", field if rows else "Q")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_spanning(cls, vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        vecs = [tuple(v) for v in vectors]
        rows, _, field = kernel.zi_rows(vecs)
        for v in vecs:
            if len(v) != ambient_dim:
                raise AmbientMismatch(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        return cls._span(rows, ambient_dim, field)

    @classmethod
    def _span(cls, rows: list[kernel.ZiRow], ambient_dim: int, field: str) -> "Subspace":
        """The span over ``field`` of Z[i] rows."""
        return cls(ambient_dim, field, kernel.span(rows, ambient_dim, field))

    @classmethod
    def null_space(cls, rows: list[kernel.ZiRow], ambient_dim: int, field: str) -> "Subspace":
        """{x : row . x = 0 for each row} over ``field``, for Z[i] rows."""
        return cls(ambient_dim, field, kernel.null_space(rows, ambient_dim, field))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, "Q", [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, "Q", [({j: (1, 0)}, 1) for j in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> ExactMatrix:
        return ExactMatrix._from_rows(self.rows, self.ambient_dim, self.field)

    def vectors(self) -> tuple[Vector, ...]:
        n, field = self.ambient_dim, self.field
        return tuple(kernel.decode(row, den, n, field) for row, den in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self) -> tuple:
        return self.ambient_dim, tuple((frozenset(r.items()), d) for r, d in self.rows)

    def __repr__(self):
        return f"Subspace(dim {self.dim} in ambient {self.ambient_dim})"

    def contains(self, v: Sequence) -> bool:
        vec = tuple(v)
        row = _zi(vec)
        if len(vec) != self.ambient_dim:
            raise AmbientMismatch("vector length mismatch")
        return not kernel.zi_reduce(row, self.echelon())

    def echelon(self) -> list[tuple[int, kernel.ZiRow]]:
        """The basis as a new ``(lead, row)`` echelon for `kernel.zi_reduce`/`zi_insert`."""
        return [(min(row), row) for row, _ in self.rows]

    def sum(self, other: "Subspace") -> "Subspace":
        _same_ambient(self, other)
        field = _either(self.field, other.field)
        rows = [row for row, _ in self.rows + other.rows]
        return Subspace._span(rows, self.ambient_dim, field)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The meet, as ``self`` cut by the annihilator of ``other``.

        The annihilator of a space, {y : y . x = 0 for each x in it}, is the
        null space of its rows; `kernel.null_space_within` cuts ``self``'s
        reduced basis by it.  The meet is over Q(i) when either space is
        and the meet is not zero.
        """
        _same_ambient(self, other)
        n = self.ambient_dim
        if not (self.dim and other.dim):
            return Subspace.zero(n)
        field = _either(self.field, other.field)
        annihilator = [row for row, _ in kernel.null_space([r for r, _ in other.rows], n, field)]
        return Subspace(n, field, kernel.null_space_within(self.rows, annihilator, field))

    def is_subspace_of(self, other: "Subspace") -> bool:
        _same_ambient(self, other)
        echelon = other.echelon()
        return not any(kernel.zi_reduce(row, echelon) for row, _ in self.rows)


class RowReducer:
    """Incremental exact row reduction for dimension/membership queries.

    Rows are kept as primitive sparse Z[i] rows (the kernel's
    ``{column: (re, im)}``: denominators cleared, content divided out) in
    echelon form, and a vector is reduced fraction-free against them
    (`kernel.zi_reduce`), with no content divided out until a row is kept.
    Only zero tests are asked of the result, so no row is ever divided by
    its lead.  `add` and `contains` take a sequence of scalars or a row
    already encoded by the kernel (`kernel.zi_rows`); any nonzero multiple
    of a vector spans the same line, so the scale of an encoded row does
    not matter.  `copy` is cheap: rows are never changed in place, so a
    copy shares them.  `add` returns False at once on the empty row.  The
    bigrading search keeps one reducer per level, tests each candidate's
    residuals modulo those rows (`kernel.zi_residual`) for a plane with
    `kernel.zi_plane`, and copies only for a candidate that passes.  Each
    candidate makes the `add` calls that a fresh reducer of its residuals
    would take, one and a second when its first residual is not zero, on
    the empty row of one empty reducer that the whole search shares.
    """

    __slots__ = ("ncols", "rows")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def copy(self) -> "RowReducer":
        """An independent reducer with the same rows."""
        other = RowReducer(self.ncols)
        other.rows = self.rows.copy()
        return other

    def add(self, vec) -> bool:
        """Reduce and insert; True when the span grew.  An empty row returns False at once."""
        if not vec:
            return False
        return kernel.zi_insert(self.rows, _zi(vec))

    def contains(self, vec) -> bool:
        return not kernel.zi_reduce(_zi(vec), self.rows)


def _zi(vec):
    """``vec`` as a kernel Z[i] row, unless it already is one."""
    return vec if isinstance(vec, dict) else kernel.zi_rows([vec])[0][0]


def _same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def subspace_sum_intersect(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
    """Sum and intersection; dim(sum) + dim(intersection) = dim a + dim b."""
    return a.sum(b), a.intersect(b)


def _conjugate_row(s_rows: list[kernel.ZiRow], row: kernel.ZiRow) -> kernel.ZiRow:
    """S * conj(x) for the matrix S with the Z[i] rows ``s_rows`` and the Z[i] row x."""
    return kernel.zi_matvec(s_rows, kernel.zi_conj(row))


def _involutive(s_rows: list[kernel.ZiRow], den: int) -> bool:
    """Whether S * conj(S) = I for the square matrix S = ``s_rows`` / ``den``."""
    square = kernel.zi_matmul(s_rows, [kernel.zi_conj(row) for row in s_rows])
    return square == [{j: (den * den, 0)} for j in range(len(s_rows))]


def _conjugate(s_rows: list[kernel.ZiRow], s_den: int, v: Sequence, field: str) -> Vector:
    """S * conj(v) for S = ``s_rows`` / ``s_den`` over ``field``; `Gaussian` if S or v is."""
    vec = tuple(v)
    encoded = kernel.zi_rows([vec])
    if len(vec) != len(s_rows):
        raise AmbientMismatch("vector length mismatch in matvec")
    return _apply(_conjugate_row, s_rows, s_den, encoded, field)


def check_real_structure(s: ExactMatrix) -> tuple[list[kernel.ZiRow], int]:
    """Require S * conj(S) = identity (an antilinear involution); returns S's rows, one den."""
    if s.rows != s.cols:
        raise NotInvolution("real structure must be square")
    rows, den = kernel.zi_common(s.exact_rows)
    if not _involutive(rows, den):
        raise NotInvolution("S * conj(S) is not the identity")
    return rows, den


def conjugate_vector(v: Sequence, real_structure: ExactMatrix) -> Vector:
    """Apply the antilinear involution v -> S * conj(v)."""
    return _conjugate(*check_real_structure(real_structure), v, real_structure.field)
