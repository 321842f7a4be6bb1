"""Decision pipeline for quasi-projectivity of non-compact nilmanifolds.

For a rational nilpotent Lie algebra (so the group admits a lattice) and a
Euclidean factor dimension m, `check` applies the necessary conditions in
order: nilpotency class at most two, then evenness of b1 of the canonical
abelian-factor-free core, then the bounded bigrading search.  Verdicts are
Obstructed (with reasons), PassesNecessaryConditions (search exhausted), or
BigradingExhibited (with a verified grading).  Verdicts are never exceptions.

m is echoed but does not branch the logic for m > 0; m = 0 is the compact
case, where quasi-projectivity is equivalent to the algebra being abelian.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from ._record import Record
from .bigrading import Bigrading, SearchBounds, search_bigrading
from .catalog import _diagonal_grading, catalog_keys, get
from .cohomology import top_class_bidegree
from .errors import GradingNotDiagonal, InputError, NotLatticeAdmissible
from .liealg import LieAlgebra, commutator_ideal, lower_central_series

__all__ = [
    "NilmanifoldSpec",
    "Verdict",
    "Reason",
    "check",
    "reproduce_classification",
    "CLASSIFICATION_DIMS",
    "diagonal_h1_check",
    "OBSTRUCTED",
    "PASSES_NECESSARY",
    "EXHIBITED",
]

OBSTRUCTED = "Obstructed"
PASSES_NECESSARY = "PassesNecessaryConditions"
EXHIBITED = "BigradingExhibited"


class NilmanifoldSpec(Record):
    """A nilmanifold of ``algebra``, which must be over Q, times the Euclidean factor ℝᵐ, m >= 0."""

    _fields = ("algebra", "m")

    def __init__(self, algebra: LieAlgebra, m: int = 1):
        if m < 0:
            raise InputError("Euclidean factor dimension must be >= 0")
        if algebra.field != "Q":
            raise NotLatticeAdmissible(
                f"{algebra.name}: rational structure constants are required "
                "for a lattice to exist"
            )
        self._store(algebra, m)


class Reason(NamedTuple):
    test: str
    witness: dict


class Verdict(NamedTuple):
    status: str
    b1: int
    # `check` passes a list; a NamedTuple's default is one object shared by
    # every record, so it is an empty tuple.
    reasons: Sequence[Reason] = ()
    bigrading: Bigrading | None = None

    @property
    def obstructed(self) -> bool:
        return self.status == OBSTRUCTED


def check(spec: NilmanifoldSpec | LieAlgebra, bounds: SearchBounds | None = None) -> Verdict:
    """Run the full decision pipeline on a rational nilpotent Lie algebra.

    A bare `LieAlgebra` is taken with m = 1; `NilmanifoldSpec` sets any other m.
    """
    if isinstance(spec, LieAlgebra):
        spec = NilmanifoldSpec(algebra=spec, m=1)
    L = spec.algebra
    series = lower_central_series(L)  # raises NotNilpotent
    b1 = L.dim - commutator_ideal(L).dim  # C^1, the series' second term
    reasons: list[Reason] = []

    if spec.m == 0:
        # Compact case: quasi-projective iff the group is abelian (a torus).
        if L.is_abelian():
            reasons.append(
                Reason("compact_abelian_criterion", {"abelian": True, "m": 0})
            )
            grading = _diagonal_grading(L.dim) if L.dim else None
            return Verdict(EXHIBITED, b1, reasons, grading)
        reasons.append(
            Reason(
                "compact_abelian_criterion",
                {"abelian": False, "nilpotency_class": series.nilpotency_class},
            )
        )
        return Verdict(OBSTRUCTED, b1, reasons)

    if series.nilpotency_class > 2:
        reasons.append(
            Reason(
                "nilpotency_class",
                {
                    "nilpotency_class": series.nilpotency_class,
                    "series_dims": [s.dim for s in series.terms],
                },
            )
        )
        return Verdict(OBSTRUCTED, b1, reasons)
    reasons.append(
        Reason("nilpotency_class", {"nilpotency_class": series.nilpotency_class})
    )

    # Class <= 2 here, so the search's witness holds the abelian factor and b1 of the core.
    outcome = search_bigrading(L, bounds)
    k = outcome.witness["abelian_factor"]
    b1_core = outcome.witness["b1_core"]
    reasons.append(Reason("abelian_factor", {"k": k, "core_dim": L.dim - k}))
    if outcome.status == "obstructed" and outcome.reason == "b1_parity":
        reasons.append(Reason("b1_parity", {"b1_core": b1_core, "parity": "odd"}))
        return Verdict(OBSTRUCTED, b1, reasons)
    reasons.append(Reason("b1_parity", {"b1_core": b1_core, "parity": "even"}))

    if outcome.found:
        reasons.append(
            Reason(
                "bigrading_search",
                {"outcome": "found", "shape": outcome.report.shape},
            )
        )
        return Verdict(EXHIBITED, b1, reasons, outcome.bigrading)
    reasons.append(
        Reason(
            "bigrading_search",
            {
                "outcome": "not_found_within_bounds",
                "coefficients": list(outcome.bounds.coefficients),
                "depth": outcome.bounds.depth,
                "max_nodes": outcome.bounds.max_nodes,
            },
        )
    )
    return Verdict(PASSES_NECESSARY, b1, reasons)


class ClassificationRow(NamedTuple):
    b1: int
    keys: tuple[str, ...]


class ClassificationTable(NamedTuple):
    dim: int
    rows: tuple[ClassificationRow, ...]  # BigradingExhibited entries grouped by b1
    obstructed: tuple[tuple[str, str], ...]  # (key, first obstruction test)
    passes_only: tuple[str, ...]  # PassesNecessaryConditions entries


# The dimensions whose classification tables the catalog covers.
CLASSIFICATION_DIMS = range(1, 9)


def reproduce_classification(dim: int, bounds: SearchBounds | None = None) -> ClassificationTable:
    """Run `check` over all rational catalog entries of one dimension."""
    if dim not in CLASSIFICATION_DIMS:
        raise ValueError(
            f"dimension must be between {CLASSIFICATION_DIMS[0]} "
            f"and {CLASSIFICATION_DIMS[-1]}"
        )
    exhibited: dict[int, list[str]] = {}
    obstructed: list[tuple[str, str]] = []
    passes: list[str] = []
    for key in catalog_keys():
        entry = get(key)
        if entry.algebra.dim != dim or entry.algebra.field != "Q":
            continue
        verdict = check(NilmanifoldSpec(entry.algebra, m=1), bounds=bounds)
        if verdict.status == EXHIBITED:
            exhibited.setdefault(verdict.b1, []).append(key)
        elif verdict.status == OBSTRUCTED:
            # `check` returns right after the reason that obstructs.
            obstructed.append((key, verdict.reasons[-1].test))
        else:
            passes.append(key)
    rows = tuple(
        ClassificationRow(b1=b, keys=tuple(sorted(ks)))
        for b, ks in sorted(exhibited.items())
    )
    return ClassificationTable(
        dim=dim,
        rows=rows,
        obstructed=tuple(sorted(obstructed)),
        passes_only=tuple(sorted(passes)),
    )


def diagonal_h1_check(L: LieAlgebra, g: Bigrading) -> bool:
    """Executable form of the weight-counting argument for diagonal gradings.

    For a verified grading with all components at (p, p) the top cohomology
    class forces sum((-p - 1) * dim) = 0, which kills every component below
    (-1,-1); the algebra is then abelian.  Returns that conclusion, checking
    it against the algebra.
    """
    if not g.is_diagonal():
        raise GradingNotDiagonal(
            f"components at {g.bidegrees()} are not all diagonal"
        )
    n = L.dim
    if n == 0:
        return True
    s, t = top_class_bidegree(L, g)
    deficit = s - n  # = sum over components of (-p - 1) * dim, each term >= 0
    forced_abelian = deficit == 0 and s <= n
    actually_abelian = L.is_abelian()
    return forced_abelian and actually_abelian
