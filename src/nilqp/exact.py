"""Exact matrices and canonical subspaces over Q and Q(i).

Matrices are dense and immutable; every entry is an exact scalar and all
entries of one matrix live in one field ("Q" or "Qi" - mixed input is
promoted to "Qi").  Subspaces are represented by their reduced-row-echelon
basis, which is unique, so equal subspaces are structurally equal objects.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import kernel
from .errors import AmbientMismatch, NotInvolution
from .scalars import Gaussian, Q0, Q1, Rational, Scalar, as_scalar, conj, format_scalar

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

    def add(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise AmbientMismatch("shape mismatch in add")
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            cols=self.cols,
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

    def conj_entrywise(self) -> "ExactMatrix":
        return ExactMatrix(
            [[conj(x) for x in row] for row in self.entries], cols=self.cols
        )

    # -- elimination ------------------------------------------------------------

    def rref(self) -> tuple["ExactMatrix", list[int]]:
        """Unique reduced row echelon form and its pivot columns."""
        if self.rows == 0 or self.cols == 0:
            return self, []
        n = self.cols
        rows = kernel.int_rows(self.entries, self.field)
        if self.field == "Q":
            out, pivots = kernel.rref_q(rows, n)
            red = [kernel.q_decode(row, row[p], n) for row, p in zip(out, pivots)]
            zero = Q0
        else:
            out, pivots = kernel.rref_qi(rows, n)
            red = [kernel.zi_decode(*kernel.zi_exact(row, p), n) for row, p in zip(out, pivots)]
            zero = Gaussian(0)
        red += [(zero,) * n] * (self.rows - len(red))
        return ExactMatrix(red, cols=n), pivots

    def rank(self) -> int:
        if self.rows == 0 or self.cols == 0:
            return 0
        rows = kernel.int_rows(self.entries, self.field)
        if self.field == "Q":
            return kernel.rank_q(rows, self.cols)
        return kernel.rank_qi(rows, self.cols)

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
    return Subspace.null_space(kernel.int_rows(m.entries, m.field), m.cols, m.field)


class Subspace:
    """Row space with a canonical (RREF) basis; equality is structural."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: ExactMatrix):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

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
        if not rows:
            return cls(ambient_dim, ExactMatrix([], cols=ambient_dim))
        m = ExactMatrix(rows, cols=ambient_dim)
        red, pivots = m.rref()
        basis = ExactMatrix(red.entries[: len(pivots)], cols=ambient_dim)
        return cls(ambient_dim, basis)

    @classmethod
    def null_space(cls, rows: list[dict], ambient_dim: int, field: str) -> "Subspace":
        """{x : row . x = 0 for each row}, the kernel's integer rows over ``field``.

        `kernel.null_space` gives the reduced basis, decoded as it is: over
        Q(i) as `Gaussian` rows, and the zero space over Q, as from
        `from_spanning`.
        """
        null = kernel.null_space(rows, ambient_dim, field)
        decode = kernel.q_decode if field == "Q" else kernel.zi_decode
        vecs = [decode(row, den, ambient_dim) for row, den in null]
        return cls(ambient_dim, ExactMatrix(vecs, cols=ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ExactMatrix([], cols=ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ExactMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def vectors(self) -> tuple[Vector, ...]:
        return self.basis.entries

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} in ambient {self.ambient_dim})"

    def contains(self, v: Sequence) -> bool:
        vec = tuple(as_scalar(x) for x in v)
        if len(vec) != self.ambient_dim:
            raise AmbientMismatch("vector length mismatch")
        residual = self.reduce(vec)
        return all(not x for x in residual)

    def reduce(self, v: Sequence) -> Vector:
        """Reduce a vector against the canonical basis (residual coordinates)."""
        vec = [as_scalar(x) for x in v]
        # basis is already RREF; its pivots are the leading columns of each row
        for row in self.basis.entries:
            lead = next((j for j, x in enumerate(row) if x), None)
            if lead is None:
                continue
            c = vec[lead]
            if c:
                for j in range(lead, self.ambient_dim):
                    if row[j]:
                        vec[j] = vec[j] - c * row[j]
        return tuple(vec)

    def sum(self, other: "Subspace") -> "Subspace":
        _same_ambient(self, other)
        return Subspace.from_spanning(self.vectors() + other.vectors(), self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The meet, as the null space of both annihilators stacked.

        It is over Q(i) when either space is and the meet is not zero.
        """
        _same_ambient(self, other)
        if not (self.dim and other.dim):
            return Subspace.zero(self.ambient_dim)
        field = "Qi" if "Qi" in (self.basis.field, other.basis.field) else "Q"
        rows = self._annihilator(field) + other._annihilator(field)
        return Subspace.null_space(rows, self.ambient_dim, field)

    def _annihilator(self, field: str) -> list[dict]:
        """Kernel rows over ``field`` spanning {y : y . x = 0 for each x in self}."""
        vecs = self.vectors()
        rows = kernel.int_rows(vecs, "Q") if field == "Q" else kernel.zi_rows(vecs)[0]
        return [row for row, _ in kernel.null_space(rows, self.ambient_dim, field)]

    def is_subspace_of(self, other: "Subspace") -> bool:
        return all(other.contains(v) for v in self.vectors())


class RowReducer:
    """Incremental exact row reduction for dimension/membership queries.

    Rows are kept as primitive sparse Z[i] rows (the kernel's
    ``{column: (re, im)}``: denominators cleared, content divided out) in
    echelon form, and a vector is reduced fraction-free against them
    (`kernel.zi_reduce`).  Only zero tests are asked of the result, so no
    row is ever divided by its lead.  `add` and `contains` take a sequence
    of scalars or a row already encoded by the kernel (`kernel.zi_row`);
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
    return vec if isinstance(vec, dict) else kernel.zi_row(vec)


def _same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def subspace_sum_intersect(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
    """Sum and intersection; dim(sum) + dim(intersection) = dim a + dim b."""
    return a.sum(b), a.intersect(b)


def check_real_structure(s: ExactMatrix) -> None:
    """Require S * conj(S) = identity (an antilinear involution)."""
    if s.rows != s.cols:
        raise NotInvolution("real structure must be square")
    if not s.matmul(s.conj_entrywise()) == ExactMatrix.identity(s.rows):
        raise NotInvolution("S * conj(S) is not the identity")


def conjugate_vector(v: Sequence, real_structure: ExactMatrix) -> Vector:
    """Apply the antilinear involution v -> S * conj(v)."""
    check_real_structure(real_structure)
    return real_structure.matvec([conj(as_scalar(x)) for x in v])
