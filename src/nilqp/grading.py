"""The bigrading data model: bidegrees and the generators of each component.

A bigrading assigns basis vectors of a complexified nilpotent Lie algebra to
integer bidegrees (p, q) with p, q <= 0 and p + q <= -1.  Verifying one, and
searching for one, is `nilqp.bigrading`; this module holds only the data, so
that the catalog and the JSON reader can build gradings without it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel
from .errors import AmbientMismatch, GradingNotCompatible
from .exact import Subspace, Vector
from .scalars import Gaussian, Rational, as_scalar

__all__ = ["Bigrading", "BigradingComponent"]


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
        """The grading of ``(p, q, generators)``: equal scalars of one type are one object in it.

        They are shared through a dict local to the call, keyed by two ints for a `Rational`
        and four for a `Gaussian`: `Rational` 1 and `Gaussian` 1 + 0i keep their types.
        """
        comps = []
        seen = set()
        shared: dict = {}
        for p, q, gens in components:
            if p > 0 or q > 0 or p + q > -1:
                raise GradingNotCompatible(
                    f"bidegree ({p}, {q}) violates p, q <= 0 and p + q <= -1"
                )
            if (p, q) in seen:
                raise GradingNotCompatible(f"duplicate bidegree ({p}, {q})")
            seen.add((p, q))
            gen_vecs = []
            for g in gens:
                vec = []
                for x in g:
                    x = x if type(x) in (Rational, Gaussian) else as_scalar(x)
                    rational = isinstance(x, Rational)
                    key = (x.num, x.den) if rational else (x.re.num, x.re.den, x.im.num, x.im.den)
                    vec.append(shared.setdefault(key, x))
                gen_vecs.append(tuple(vec))
            if gen_vecs:
                comps.append(BigradingComponent(p=p, q=q, generators=tuple(gen_vecs)))
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
