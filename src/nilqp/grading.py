"""The bigrading data model: bidegrees and the generators of each component.

A bigrading assigns basis vectors of a complexified nilpotent Lie algebra to
integer bidegrees (p, q) with p, q <= 0 and p + q <= -1.  Verifying one, and
searching for one, is `nilqp.bigrading`; this module holds only the data, so
that the catalog and the JSON reader can build gradings without it.

A component keeps its generators once, as the kernel's exact vectors
``(row, den)`` in lowest terms, the form of ``exact.Subspace.rows``: equal
gradings store equal rows, and every reader reads them.  `Bigrading.build`
encodes scalars once; the search, the filtrations and the catalog's sums
hand over the rows they hold.  `BigradingComponent.generators` decodes.
"""

from __future__ import annotations

from typing import NamedTuple

from . import kernel
from ._record import Record
from .errors import AmbientMismatch, GradingNotCompatible
from .exact import Subspace, Vector, _scalar_row
from .scalars import Gaussian

__all__ = ["Bigrading", "BigradingComponent"]


class BigradingComponent(Record):
    """The generators of bidegree (p, q): one ``(row, den)`` each, and their ``lengths``.

    A sparse row does not carry its length, so ``lengths`` does.  ``field``
    is "Qi" when an entry was entered as `Gaussian`, "Q" otherwise (the rule
    of ``Subspace.from_spanning``), and takes no part in equality or the
    hash: `Rational` 1 and `Gaussian` 1 + 0i give equal components.
    `generators` decodes the rows under it on each read (`kernel.decode`).
    """

    _fields = ("p", "q", "rows", "lengths", "field")

    def __init__(
        self,
        p: int,
        q: int,
        rows: tuple[tuple[kernel.ZiRow, int], ...],
        lengths: tuple[int, ...],
        field: str = "Q",
    ):
        self._store(p, q, rows, lengths, field)

    def _key(self) -> tuple:
        return self.p, self.q, self.rows, self.lengths

    def __hash__(self):
        rows = tuple((frozenset(row.items()), den) for row, den in self.rows)
        return hash((self.p, self.q, self.lengths, rows))

    @property
    def generators(self) -> tuple[Vector, ...]:
        field = self.field
        return tuple(kernel.decode(*v, k, field) for v, k in zip(self.rows, self.lengths))

    def checked_rows(self, ambient: int) -> list[kernel.ZiRow]:
        """The stored Z[i] rows; AmbientMismatch names the first generator of another length."""
        for k in self.lengths:
            if k != ambient:
                raise AmbientMismatch(f"vector of length {k} in ambient dimension {ambient}")
        return [row for row, _ in self.rows]

    def subspace(self, ambient: int) -> Subspace:
        return Subspace._span(self.checked_rows(ambient), ambient, self.field)


class Bigrading(NamedTuple):
    components: tuple[BigradingComponent, ...]

    @classmethod
    def build(cls, components) -> "Bigrading":
        """The grading of ``(p, q, generators)``, sequences of scalars or ints, encoded once."""
        comps = []
        seen = set()
        for p, q, gens in components:
            if p > 0 or q > 0 or p + q > -1:
                raise GradingNotCompatible(f"bidegree ({p}, {q}) violates p, q <= 0 and p + q <= -1")
            if (p, q) in seen:
                raise GradingNotCompatible(f"duplicate bidegree ({p}, {q})")
            seen.add((p, q))
            vecs = [_scalar_row(g) for g in gens]
            field = "Qi" if any(Gaussian in map(type, v) for v in vecs) else "Q"
            rows, den = kernel.zi_rows(vecs)
            comps.append((p, q, tuple(map(len, vecs)), field, [(row, den) for row in rows]))
        return cls._from_rows(comps)

    @classmethod
    def _from_rows(cls, components) -> "Bigrading":
        """The grading of ``(p, q, lengths, field, vectors)``, ``(row, den)`` each, in lowest terms.

        ``lengths`` holds each vector's length, or is one int for all.  The
        bidegrees are not checked, and a component with no vectors is left out.
        """
        comps = [
            BigradingComponent(
                p,
                q,
                tuple(kernel.zi_lowest(*v) for v in vecs),
                (lengths,) * len(vecs) if type(lengths) is int else lengths,
                field,
            )
            for p, q, lengths, field, vecs in components
            if vecs
        ]
        comps.sort(key=lambda c: (-(c.p + c.q), -c.q))
        return cls(components=tuple(comps))

    @property
    def ambient_dim(self) -> int:
        for c in self.components:
            return c.lengths[0]
        return 0

    @property
    def total_generators(self) -> int:
        return sum(len(c.rows) for c in self.components)

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
        return Bigrading._from_rows(
            (c.p, c.q, n, c.field, c.subspace(n).rows) for c in self.components
        )

    def is_restricted_shape(self) -> bool:
        return set(self.bidegrees()) <= {(-1, 0), (0, -1), (-1, -1)}

    def is_diagonal(self) -> bool:
        return all(c.p == c.q for c in self.components)

    def bidegree_rows(self, ambient: int) -> dict[tuple[int, int], list[kernel.ZiRow]]:
        """The stored Z[i] rows by bidegree (`BigradingComponent.checked_rows`), each at its scale."""
        return {(c.p, c.q): c.checked_rows(ambient) for c in self.components}
