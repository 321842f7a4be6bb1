"""The four benchmark workloads: base algebras, references, items and checks.

Everything here except ``Item.call`` runs outside the timed region.  A
workload's item list is a number of rounds over its base algebras, each item
a base moved by its own seeded basis change, so every item is a distinct
algebra and any prefix of whole rounds has the same mix.  References depend
only on the unmoved bases; ``references.py`` computes them in a process of
their own, so their memory stays out of the workload's ``peak_rss_mb``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from nilqp import (
    Bigrading,
    LieAlgebra,
    NilmanifoldSpec,
    SearchBounds,
    betti_numbers,
    bigraded_cohomology,
    catalog_get,
    catalog_keys,
    check,
    complexify,
    direct_sum,
    search_bigrading,
    verify_bigrading,
)
from nilqp.checker import EXHIBITED, OBSTRUCTED, PASSES_NECESSARY
from nilqp.exact import RowReducer

import inputs
import oracles

SEARCH_BOUNDS = SearchBounds(max_nodes=2000)
MIN_ITEMS = 100  # so that at least 10 latencies lie beyond p90

# Two-step direct sums of catalog algebras (dims 9-11) for ``search_budget``.
# L5_parity+L5_parity (and +C1) pass the necessary conditions but have no
# grading of the restricted shapes, so their depth-first search runs out of
# ``max_nodes`` on every seed; they make up the latency tail.  The others are
# exhibited on every seed tried.  Sums whose search exhausts the budget on
# some seeds only (n5+n5, n3+N1_82, n5+n3+n3, n3+n3+n3+C1, n3+n3+n3+C2) or
# swings threefold with the basis change (n7+n3, n3+n3+n3) are left out: a
# run holds too few of them for its figures to repeat from seed to seed.
SEARCH_SUMS = (
    ("L5_parity", "L5_parity"),
    ("L5_parity", "L5_parity", "abelian_1"),
    ("n5", "n3", "abelian_1"),
    ("n3", "n3", "abelian_3"),
    ("n7", "abelian_2"),
    ("n5", "abelian_4"),
    ("n5", "n3", "abelian_2"),
    ("n7", "abelian_3"),
    ("n5", "abelian_5"),
    ("n5", "n3", "abelian_3"),
    ("n3", "n3", "abelian_5"),
    ("n7", "abelian_4"),
    ("n5", "abelian_6"),
)
# Dims 9-10 sums that join the dimension-8 catalog entries in ``betti``.
# The cost of one item swings with its basis change, because the rational
# entries of the differentials grow by different amounts.  n3+n3+C4 is the
# dim-10 sum that swings least (0.19-0.57 s over 12 basis changes); other
# dim-10 sums (n5+C5, n7+C3, n5+n3+C2, N3_82+C2, n3+n3+n3+C1, and n5+n5 and
# n7+n3) reach 1-2.7 s on some seeds, so a run holds too few of them for its
# figures to repeat from one seed to the next.
BETTI_SUMS = (
    ("n3", "n3", "n3"),
    ("n5", "n3", "abelian_1"),
    ("N3_82", "abelian_1"),
    ("n7", "abelian_2"),
    ("n3", "n3", "abelian_4"),
)
# Rational forms of the Q(i) catalog entries, for the Fraction Betti oracle.
REAL_FORMS = {"37B": "n7_143", "37D": "n7_142", "N1_84": "N1_84_real"}


@dataclass(frozen=True)
class Base:
    label: str
    algebra: LieAlgebra
    grading: Bigrading | None = None  # bigraded_qi: the catalog's known grading


@dataclass
class Item:
    """One call into the program and the check of its output."""

    label: str  # base algebra
    algebra: LieAlgebra  # the moved algebra the call receives
    call: Callable[[], object]
    check: Callable[[object], str | None]  # failure message, or None when correct
    verdict: Callable[[object], str | None] = lambda out: None
    # search_budget: whether the item's search stops at max_nodes
    exhausts: Callable[[], bool] | None = None


@dataclass
class Workload:
    name: str
    bases: Callable[[], list[Base]]
    reference: Callable[[Base], object]  # JSON-able, from the unmoved base
    item: Callable[[Base, object, object], Item]  # (base, T, reference)
    rounds_per_s: float  # item list length per --seconds, measured at its definition
    trace_rounds: int  # rounds the traced run executes


def build(w: Workload, seed: int, rounds: int, refs: list) -> list[Item]:
    """``rounds`` rounds over the bases, each item moved by its own seeded T."""
    rng = random.Random(seed)
    bases = w.bases()
    items = []
    for _ in range(rounds):
        for base, ref in zip(bases, refs):
            items.append(w.item(base, inputs.random_invertible_t(base.algebra.dim, rng), ref))
    return items


def rounds_for(w: Workload, seconds: float) -> int:
    """The item list's length in rounds: fixed by ``seconds``, not by the program's speed."""
    n = len(w.bases())
    return max(math.ceil(MIN_ITEMS / n), round(seconds * w.rounds_per_s))


def _sum(keys) -> LieAlgebra:
    alg = catalog_get(keys[0]).algebra
    for key in keys[1:]:
        alg = direct_sum(alg, catalog_get(key).algebra)
    return alg.rename("+".join(keys))


def _fraction_brackets(alg: LieAlgebra) -> dict:
    assert alg.field == "Q"
    return {ij: {k: Fraction(c.num, c.den) for k, c in coeffs} for ij, coeffs in alg.brackets}


def _regrades(alg: LieAlgebra, grading: Bigrading) -> str | None:
    """None when the grading verifies (strictly, else laxly) on ``alg``."""
    if verify_bigrading(alg, grading, "strict").valid:
        return None
    if verify_bigrading(alg, grading, "lax").valid:
        return None
    return "exhibited grading does not re-verify on the moved algebra"


def _status_of(v) -> str:
    return v.status


# -- verdicts -----------------------------------------------------------------


def _verdict_bases() -> list[Base]:
    return [Base(k, catalog_get(k).algebra) for k in catalog_keys() if catalog_get(k).algebra.field == "Q"]


def _verdict_reference(base: Base):
    v = check(NilmanifoldSpec(base.algebra, m=1))
    return [v.status, [r.test for r in v.reasons]]


def _verdict_item(base: Base, t, want) -> Item:
    moved = inputs.move(base.algebra, t)
    return Item(
        base.label,
        moved,
        call=lambda: check(NilmanifoldSpec(moved, m=1)),
        check=lambda v: _check_verdict(moved, v, want),
        verdict=_status_of,
    )


def _check_verdict(moved, v, want) -> str | None:
    got = [v.status, [r.test for r in v.reasons]]
    if got != want:
        return f"verdict {got} differs from the unmoved algebra's {want}"
    if v.status == EXHIBITED:
        return _regrades(moved, v.bigrading)
    return None


# -- search_budget ------------------------------------------------------------


def _search_bases() -> list[Base]:
    return [Base("+".join(keys), _sum(keys)) for keys in SEARCH_SUMS]


def _search_reference(base: Base):
    """Class, abelian factor and core b1 of a two-step algebra, by Fraction oracles."""
    n = base.algebra.dim
    br = _fraction_brackets(base.algebra)
    z = oracles.oracle_centralizer_dim(br, n)
    vecs = []
    for coeffs in br.values():
        v = [Fraction(0)] * n
        for k, c in coeffs.items():
            v[k] = c
        vecs.append(v)
    c1 = oracles.frac_rank(vecs) if vecs else 0
    unit = [[Fraction(int(a == b)) for a in range(n)] for b in range(n)]
    if not vecs or any(any(oracles.oracle_bracket(br, n, e, w)) for w in vecs for e in unit):
        raise ValueError(f"{base.label}: search_budget bases must be two-step")
    k = z - c1
    b1_core = n - z
    return [
        ["nilpotency_class", {"nilpotency_class": 2}],
        ["abelian_factor", {"k": k, "core_dim": n - k}],
        ["b1_parity", {"b1_core": b1_core, "parity": "odd" if b1_core % 2 else "even"}],
    ]


def _search_item(base: Base, t, want) -> Item:
    moved = inputs.move(base.algebra, t)
    return Item(
        base.label,
        moved,
        call=lambda: check(moved, bounds=SEARCH_BOUNDS),
        check=lambda v: _check_search(moved, v, want),
        verdict=_status_of,
        exhausts=lambda: exhausts_budget(moved),
    )


def _check_search(moved, v, want) -> str | None:
    got = [[r.test, r.witness] for r in v.reasons[:3]]
    if got != want:
        return f"necessary-condition witnesses {got} differ from {want}"
    if v.status == OBSTRUCTED:
        return "verdict is Obstructed"
    if v.status == EXHIBITED:
        return _regrades(moved, v.bigrading)
    if v.status != PASSES_NECESSARY:
        return f"unknown status {v.status}"
    return None


def exhausts_budget(alg: LieAlgebra) -> bool:
    """Whether ``search_bigrading`` stops at ``max_nodes`` rather than running out of candidates.

    A search cut by its budget does more work when it is given more nodes;
    one that ran out of candidates does exactly the same.  The work is
    counted as calls of ``RowReducer.add``, which each candidate node makes.
    """
    more = SearchBounds(max_nodes=SEARCH_BOUNDS.max_nodes + 50)
    return _rowreducer_adds(alg, more) > _rowreducer_adds(alg, SEARCH_BOUNDS)


def _rowreducer_adds(alg: LieAlgebra, bounds: SearchBounds) -> int:
    original = RowReducer.add
    calls = [0]

    def counted(self, vec):
        calls[0] += 1
        return original(self, vec)

    RowReducer.add = counted
    try:
        search_bigrading(alg, bounds)
    finally:
        RowReducer.add = original
    return calls[0]


# -- betti --------------------------------------------------------------------


def _betti_bases() -> list[Base]:
    keys = [
        k for k in catalog_keys() if catalog_get(k).algebra.dim == 8 and catalog_get(k).algebra.field == "Q"
    ]
    return [Base(k, catalog_get(k).algebra) for k in keys] + [
        Base("+".join(keys), _sum(keys)) for keys in BETTI_SUMS
    ]


def _betti_reference(base: Base):
    return oracles.oracle_betti(_fraction_brackets(base.algebra), base.algebra.dim)


def _betti_item(base: Base, t, want) -> Item:
    moved = inputs.move(base.algebra, t)
    return Item(
        base.label,
        moved,
        call=lambda: betti_numbers(moved).betti,
        check=lambda b: None if list(b) == want else f"betti {list(b)} != oracle {want}",
    )


# -- bigraded_qi --------------------------------------------------------------


def _qi_bases() -> list[Base]:
    keys = [
        k for k in catalog_keys() if catalog_get(k).algebra.dim in (7, 8) and catalog_get(k).known_bigradings
    ]
    return [Base(k, catalog_get(k).algebra, catalog_get(k).known_bigradings[0]) for k in keys]


def _qi_reference(base: Base):
    alg = base.algebra
    table = bigraded_cohomology(alg if alg.field == "Qi" else complexify(alg), base.grading)
    real = catalog_get(REAL_FORMS.get(base.label, base.label)).algebra
    return {
        "table": [list(row) for row in table.by_bidegree],
        "betti": oracles.oracle_betti(_fraction_brackets(real), real.dim),
    }


def _qi_item(base: Base, t, want) -> Item:
    moved = inputs.move(base.algebra, t)
    grading = inputs.transport_grading(base.grading, t)
    return Item(
        base.label,
        moved,
        call=lambda: bigraded_cohomology(moved if moved.field == "Qi" else complexify(moved), grading),
        check=lambda table: _check_table(table, want["table"], want["betti"]),
    )


def _check_table(table, want, betti_ref) -> str | None:
    if [list(row) for row in table.by_bidegree] != want:
        return "bidegree table differs from the unmoved algebra's"
    sums = [0] * len(betti_ref)
    for j, p, q, d in table.by_bidegree:
        if not j <= p + q <= 2 * j:
            return f"H^{j}_({p},{q}) lies outside j <= p+q <= 2j"
        sums[j] += d
    if sums != betti_ref or list(table.betti) != betti_ref:
        return f"per-degree sums {sums} differ from oracle Betti numbers {betti_ref}"
    return None


BY_NAME = {
    w.name: w
    for w in (
        Workload("verdicts", _verdict_bases, _verdict_reference, _verdict_item, 0.85, 2),
        Workload("search_budget", _search_bases, _search_reference, _search_item, 0.3, 1),
        Workload("betti", _betti_bases, _betti_reference, _betti_item, 0.65, 2),
        Workload("bigraded_qi", _qi_bases, _qi_reference, _qi_item, 1.5, 1),
    )
}
