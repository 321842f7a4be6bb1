"""Exact matrices and canonical subspaces over Q and Q(i).

Matrices are dense and immutable; every entry is an exact scalar and all
entries of one matrix live in one field ("Q" or "Qi" - mixed input is
promoted to "Qi").  A subspace holds its reduced-row-echelon basis, which
is unique, as the kernel's exact integer vectors, so equal subspaces are
structurally equal objects; sums, meets and containments run on those
vectors, and scalars are made only when a caller reads the basis.

On a real structure's Z[i] rows, `_conjugate_row` is the one S * conj(x),
and `_involutive` the one test of S * conj(S) = I.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import kernel
from .errors import AmbientMismatch, NotInvolution
from .scalars import Gaussian, Q0, Q1, Rational, Scalar, as_scalar, format_scalar

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

_SCALAR_TYPES = frozenset((Rational, Gaussian))


def _scalar_row(row) -> Vector:
    """``row`` as a tuple of scalars; rows that already are skip `as_scalar`."""
    row = tuple(row)
    if _SCALAR_TYPES.issuperset(map(type, row)):
        return row
    return tuple(as_scalar(x) for x in row)


class ExactMatrix:
    """Immutable dense matrix of exact scalars."""

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        grid = tuple(map(_scalar_row, entries))
        nrows = len(grid)
        if nrows:
            ncols = len(grid[0])
            if any(len(r) != ncols for r in grid):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            ncols = cols
        field = "Q"
        if any(Gaussian in map(type, row) for row in grid):
            field = "Qi"
            grid = tuple(
                tuple(x if isinstance(x, Gaussian) else Gaussian(x) for x in row)
                for row in grid
            )
        object.__setattr__(self, "rows", nrows)
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[Q1 if i == j else Q0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[Q0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def empty(cls, cols: int, field: str = "Q") -> "ExactMatrix":
        """The matrix with no rows over ``field``, which no entry can carry."""
        m = cls([], cols=cols)
        object.__setattr__(m, "field", field)
        return m

    # -- basics --------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                a == b
                for ra, rb in zip(self.entries, other.entries)
                for a, b in zip(ra, rb)
            )
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __getitem__(self, idx: tuple[int, int]) -> Scalar:
        i, j = idx
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def __repr__(self):
        body = "; ".join(
            " ".join(format_scalar(x) for x in row) for row in self.entries
        )
        return f"ExactMatrix({self.rows}x{self.cols} [{body}])"

    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)

    # -- algebra ---------------------------------------------------------------

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [self.column(j) for j in range(self.cols)] if self.cols else [],
            cols=self.rows,
        )

    def stack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.cols:
            raise AmbientMismatch(f"cannot stack {self.cols} with {other.cols} columns")
        return ExactMatrix(self.entries + other.entries, cols=self.cols)

    def augment(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.rows != other.rows:
            raise AmbientMismatch("row count mismatch in augment")
        return ExactMatrix(
            [ra + rb for ra, rb in zip(self.entries, other.entries)],
            cols=self.cols + other.cols,
        )

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise AmbientMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # Sparse-aware triple loop: differential matrices are mostly zeros.
        out = [[Q0] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.entries):
            acc = out[i]
            for k, a in enumerate(row):
                if not a:
                    continue
                orow = other.entries[k]
                for j, b in enumerate(orow):
                    if b:
                        acc[j] = acc[j] + a * b
        return ExactMatrix(out, cols=other.cols)

    def matvec(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise AmbientMismatch("vector length mismatch in matvec")
        vec = [as_scalar(x) for x in v]
        out = []
        for row in self.entries:
            s: Scalar = Q0
            for a, x in zip(row, vec):
                if a and x:
                    s = s + a * x
            out.append(s)
        return tuple(out)

    # -- elimination ------------------------------------------------------------

    def rref(self) -> tuple["ExactMatrix", list[int]]:
        """Unique reduced row echelon form and its pivot columns."""
        if self.rows == 0 or self.cols == 0:
            return self, []
        space = Subspace._span(kernel.zi_rows(self.entries)[0], self.cols, self.field)
        zero = kernel.decode({}, 1, self.cols, self.field)
        red = space.vectors() + (zero,) * (self.rows - space.dim)
        return ExactMatrix(red, cols=self.cols), [min(row) for row, _ in space.rows]

    def rank(self) -> int:
        if self.rows == 0 or self.cols == 0:
            return 0
        return kernel.rank(kernel.zi_rows(self.entries)[0], self.cols, self.field)

    def inverse(self) -> "ExactMatrix":
        """Inverse of a square matrix; raises ValueError when singular."""
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        n = self.rows
        if n == 0:
            return self
        aug = self.augment(ExactMatrix.identity(n))
        red, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return ExactMatrix(
            [row[n:] for row in red.entries], cols=n
        )


def rref_rank(m: ExactMatrix) -> tuple[ExactMatrix, int]:
    """Reduced row echelon form together with the rank."""
    red, pivots = m.rref()
    return red, len(pivots)


def kernel_basis(m: ExactMatrix) -> "Subspace":
    """Null space of ``m`` acting on column vectors, as a canonical subspace."""
    return Subspace.null_space(kernel.zi_rows(m.entries)[0], m.cols, m.field)


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
        rows = [tuple(as_scalar(x) for x in v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise AmbientMismatch(
                    f"vector of length {len(r)} in ambient dimension {ambient_dim}"
                )
        field = "Qi" if any(Gaussian in map(type, r) for r in rows) else "Q"
        return cls._span(kernel.zi_rows(rows)[0], ambient_dim, field)

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
        return ExactMatrix(self.vectors(), cols=self.ambient_dim)

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
        vec = [as_scalar(x) for x in v]
        if len(vec) != self.ambient_dim:
            raise AmbientMismatch("vector length mismatch")
        return not kernel.zi_reduce(_zi(vec), self.echelon())

    def echelon(self) -> list[tuple[int, kernel.ZiRow]]:
        """The basis as a new ``(lead, row)`` echelon for `kernel.zi_reduce`/`zi_insert`."""
        return [(min(row), row) for row, _ in self.rows]

    def sum(self, other: "Subspace") -> "Subspace":
        _same_ambient(self, other)
        field = "Qi" if "Qi" in (self.field, other.field) else "Q"
        rows = [row for row, _ in self.rows + other.rows]
        return Subspace._span(rows, self.ambient_dim, field)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The meet, as the null space of both annihilators stacked.

        The annihilator of a space, {y : y . x = 0 for each x in it}, is the
        null space of its rows.  The meet is over Q(i) when either space is
        and the meet is not zero.
        """
        _same_ambient(self, other)
        n = self.ambient_dim
        if not (self.dim and other.dim):
            return Subspace.zero(n)
        field = "Qi" if "Qi" in (self.field, other.field) else "Q"
        rows = []
        for s in (self, other):
            rows += [row for row, _ in kernel.null_space([r for r, _ in s.rows], n, field)]
        return Subspace.null_space(rows, n, field)

    def is_subspace_of(self, other: "Subspace") -> bool:
        _same_ambient(self, other)
        echelon = other.echelon()
        return not any(kernel.zi_reduce(row, echelon) for row, _ in self.rows)


class RowReducer:
    """Incremental exact row reduction for dimension/membership queries.

    Rows are kept as primitive sparse Z[i] rows (the kernel's
    ``{column: (re, im)}``: denominators cleared, content divided out) in
    echelon form, and a vector is reduced fraction-free against them
    (`kernel.zi_reduce`).  Only zero tests are asked of the result, so no
    row is ever divided by its lead.  `add` and `contains` take a sequence
    of scalars or a row already encoded by the kernel (`kernel.zi_rows`);
    any nonzero multiple of a vector spans the same line, so the scale of
    an encoded row does not matter.  `copy` is cheap: rows are never
    changed in place, so a copy shares them.  The bigrading search keeps one
    reducer per level, tests each candidate on a fresh reducer of its
    residuals modulo those rows (`kernel.zi_residual`), and copies only for
    a candidate that passes.
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
        """Reduce and insert; True when the span grew."""
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
    vec = _scalar_row(v)
    if len(vec) != len(s_rows):
        raise AmbientMismatch("vector length mismatch in matvec")
    (row,), den = kernel.zi_rows([vec])
    field = "Qi" if Gaussian in map(type, vec) else field
    return kernel.decode(_conjugate_row(s_rows, row), den * s_den, len(vec), field)


def check_real_structure(s: ExactMatrix) -> tuple[list[kernel.ZiRow], int]:
    """Require S * conj(S) = identity (an antilinear involution); returns S's `zi_rows`."""
    if s.rows != s.cols:
        raise NotInvolution("real structure must be square")
    rows, den = kernel.zi_rows(s.entries)
    if not _involutive(rows, den):
        raise NotInvolution("S * conj(S) is not the identity")
    return rows, den


def conjugate_vector(v: Sequence, real_structure: ExactMatrix) -> Vector:
    """Apply the antilinear involution v -> S * conj(v)."""
    return _conjugate(*check_real_structure(real_structure), v, real_structure.field)
