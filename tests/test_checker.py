import random
from itertools import combinations_with_replacement

import pytest

from nilqp import (
    ExactMatrix,
    abelian,
    apply_basis_change,
    betti_numbers,
    complexify,
    direct_sum,
    verify_bigrading,
)
from nilqp.catalog import catalog_keys, get
from nilqp.bigrading import SearchBounds
from nilqp.checker import (
    EXHIBITED,
    OBSTRUCTED,
    PASSES_NECESSARY,
    NilmanifoldSpec,
    check,
    diagonal_h1_check,
    reproduce_classification,
)
from nilqp.errors import GradingNotDiagonal, InputError, NotLatticeAdmissible, NotNilpotent
from nilqp.liealg import LieAlgebra

from conftest import fraction_brackets, moved_parity_sum, random_invertible_t
from oracles import frac_rank, oracle_betti, pencil_discriminant, pencil_two_step


def test_spec_requires_rational_field():
    with pytest.raises(NotLatticeAdmissible):
        NilmanifoldSpec(get("N1_84").algebra, m=1)


def test_spec_refuses_negative_m_as_input_error():
    with pytest.raises(InputError, match="Euclidean factor dimension must be >= 0"):
        NilmanifoldSpec(get("n3").algebra, m=-1)


def test_check_passes_necessary_when_the_search_budget_runs_out():
    bounds = SearchBounds(max_nodes=1)
    v = check(NilmanifoldSpec(moved_parity_sum(), m=1), bounds=bounds)
    assert v.status == PASSES_NECESSARY
    assert not v.obstructed and v.bigrading is None
    assert v.reasons[-1].test == "bigrading_search"
    assert v.reasons[-1].witness == {
        "outcome": "not_found_within_bounds",
        "coefficients": [-1, 0, 1],
        "depth": 2,
        "max_nodes": 1,
    }


def test_check_rejects_non_nilpotent():
    solvable = LieAlgebra.from_brackets(
        "solvable", 3, {(0, 1): {2: 1}, (0, 2): {1: 1}}
    )
    with pytest.raises(NotNilpotent):
        check(NilmanifoldSpec(solvable, m=1))


def test_check_filiform_obstructed_by_class():
    for key, expected_class in (("filiform_4", 3), ("filiform_5", 4)):
        v = check(NilmanifoldSpec(get(key).algebra, m=1))
        assert v.status == OBSTRUCTED
        r = v.reasons[0]
        assert r.test == "nilpotency_class"
        assert r.witness["nilpotency_class"] == expected_class


def test_verdict_obstructed_reads_the_status():
    for key in ("filiform_4", "L5_parity", "g_sec6", "n3", "n3+n3", "abelian_4"):
        v = check(NilmanifoldSpec(get(key).algebra, m=1))
        assert v.obstructed == (v.status == OBSTRUCTED), key
    assert check(NilmanifoldSpec(get("filiform_4").algebra, m=1)).obstructed
    assert not check(NilmanifoldSpec(get("n3").algebra, m=1)).obstructed
    assert check(NilmanifoldSpec(get("n3").algebra, m=0)).obstructed


def test_check_parity_obstruction_l5():
    v = check(NilmanifoldSpec(get("L5_parity").algebra, m=1))
    assert v.status == OBSTRUCTED
    assert v.b1 == 3
    parity = [r for r in v.reasons if r.test == "b1_parity"][0]
    assert parity.witness == {"b1_core": 3, "parity": "odd"}


def test_check_exhibits_bigradings():
    for alg, b1 in (
        (get("n3").algebra, 2),
        (get("n5").algebra, 4),
        (get("n3+n3").algebra, 4),
        (get("N1_84_real").algebra, 4),
        (get("abelian_4").algebra, 4),
        (abelian(0), 0),  # one-term lower central series
    ):
        v = check(NilmanifoldSpec(alg, m=1))
        assert v.status == EXHIBITED, alg.name
        assert v.b1 == b1
        assert v.bigrading is not None
        report = verify_bigrading(alg, v.bigrading, mode="strict")
        assert report.valid and report.shape == "restricted"


def test_check_g_sec6_separation():
    entry = get("g_sec6")
    v = check(NilmanifoldSpec(entry.algebra, m=1))
    assert v.status == OBSTRUCTED
    assert v.reasons[0].test == "nilpotency_class"
    assert v.reasons[0].witness["nilpotency_class"] == 3
    report = verify_bigrading(entry.algebra, entry.known_bigradings[0])
    assert report.valid and report.shape == "general"


def test_check_m_zero_compact_cases():
    torus = check(NilmanifoldSpec(abelian(3), m=0))
    assert torus.status == EXHIBITED
    assert torus.reasons[0].test == "compact_abelian_criterion"
    # Every unit vector at (-1, -1); a point has no grading.
    assert torus.bigrading.components[0].generators == ExactMatrix.identity(3).entries
    assert [(c.p, c.q) for c in torus.bigrading.components] == [(-1, -1)]
    assert check(NilmanifoldSpec(abelian(0), m=0)).bigrading is None
    heis = check(NilmanifoldSpec(get("n3").algebra, m=0))
    assert heis.status == OBSTRUCTED
    assert heis.reasons[0].test == "compact_abelian_criterion"


def test_check_m_does_not_branch_for_positive_m():
    for m in (1, 2, 7):
        v = check(NilmanifoldSpec(get("n3").algebra, m=m))
        assert v.status == EXHIBITED


def test_check_status_stable_under_abelian_factors():
    for key in ("n3", "n5", "L5_parity", "n3+n3"):
        base = check(NilmanifoldSpec(get(key).algebra, m=1))
        padded = check(
            NilmanifoldSpec(direct_sum(get(key).algebra, abelian(2)), m=1)
        )
        assert base.status == padded.status, key


def test_check_basis_change_invariance(rng):
    for key in ("n3", "n5", "L5_parity", "filiform_4", "N1_82", "g_sec6"):
        alg = get(key).algebra
        ref = check(NilmanifoldSpec(alg, m=1))
        for _ in range(2):
            moved = apply_basis_change(alg, random_invertible_t(alg.dim, rng))
            got = check(NilmanifoldSpec(moved, m=1))
            assert got.status == ref.status, key
            assert [r.test for r in got.reasons] == [r.test for r in ref.reasons]


def test_obstructed_class_fires_exactly_when_class_exceeds_two():
    from nilqp.liealg import lower_central_series

    for key in catalog_keys():
        alg = get(key).algebra
        if alg.field != "Q":
            continue
        v = check(NilmanifoldSpec(alg, m=1))
        cls = lower_central_series(alg).nilpotency_class
        fired = v.status == OBSTRUCTED and v.reasons[0].test == "nilpotency_class" \
            and v.reasons[0].witness["nilpotency_class"] > 2
        assert fired == (cls >= 3), key


def test_parity_agrees_with_search_on_small_two_step_entries():
    from nilqp.liealg import commutator_ideal, lower_central_series, strip_abelian_factor

    for key in catalog_keys():
        alg = get(key).algebra
        if alg.field != "Q" or alg.dim > 6:
            continue
        if lower_central_series(alg).nilpotency_class > 2:
            continue
        core, _ = strip_abelian_factor(alg)
        parity_even = (core.dim - commutator_ideal(core).dim) % 2 == 0
        v = check(NilmanifoldSpec(alg, m=1))
        assert (v.status == EXHIBITED) == parity_even, key


def test_diagonal_h1_check_abelian():
    for n in (2, 4):
        entry = get(f"abelian_{n}")
        assert diagonal_h1_check(entry.algebra, entry.known_bigradings[0])


def test_diagonal_h1_check_rejects_non_diagonal():
    entry = get("n3")
    with pytest.raises(GradingNotDiagonal):
        diagonal_h1_check(entry.algebra, entry.known_bigradings[0])


def test_attempted_diagonal_grading_on_n3_fails_verification():
    # Bracket-compatible diagonal placement (Z at (-2,-2)) is rejected at the
    # cohomology-support stage, so diagonal_h1_check never sees it.
    from nilqp import Bigrading

    g = Bigrading.build(
        [(-1, -1, [(1, 0, 0), (0, 1, 0)]), (-2, -2, [(0, 0, 1)])]
    )
    n3c = complexify(get("n3").algebra)
    report = verify_bigrading(n3c, g)
    assert report.bracket_compatible
    assert not report.cohomology_support_ok
    assert not report.valid


EXPECTED_ROWS = {
    1: {1: ["abelian_1"]},
    2: {2: ["abelian_2"]},
    3: {2: ["filiform_3", "n3"], 3: ["abelian_3"]},
    4: {3: ["n3+C1"], 4: ["abelian_4"]},
    5: {4: ["n3+C2", "n5"], 5: ["abelian_5"]},
    6: {4: ["n3+n3"], 5: ["n3+C3", "n5+C1"], 6: ["abelian_6"]},
    7: {
        4: ["n7_142", "n7_143"],
        5: ["n3+n3+C1"],
        6: ["n3+C4", "n5+C2", "n7"],
        7: ["abelian_7"],
    },
    8: {
        4: ["N1_84_real"],
        6: ["N1_82", "N2_82", "N3_82", "N4_82", "N5_82"],
        8: ["abelian_8"],
    },
}

EXPECTED_OBSTRUCTED = {
    4: [("filiform_4", "nilpotency_class")],
    5: [("L5_parity", "b1_parity"), ("filiform_5", "nilpotency_class")],
    8: [("g_sec6", "nilpotency_class")],
}


@pytest.mark.parametrize("dim", range(1, 9))
def test_reproduce_classification(dim):
    table = reproduce_classification(dim)
    rows = {r.b1: list(r.keys) for r in table.rows}
    assert rows == EXPECTED_ROWS[dim]
    assert list(table.obstructed) == EXPECTED_OBSTRUCTED.get(dim, [])
    assert table.passes_only == ()


def _verdicts_in_four_bases(base: LieAlgebra) -> list[str]:
    """`check`'s status on ``base`` unmoved and moved by `random_invertible_t` at seeds 1-3."""
    bases = [base] + [
        apply_basis_change(base, random_invertible_t(base.dim, random.Random(seed)))
        for seed in (1, 2, 3)
    ]
    return [check(alg, SearchBounds(max_nodes=2000)).status for alg in bases]


def _c1_dim(brackets: dict, n: int) -> int:
    return frac_rank([[coeffs.get(t, 0) for t in range(n)] for coeffs in brackets.values()])


def test_classification_tables_cover_catalog_entries_only():
    # de Graaf's L6,22(eps) (J. Algebra 309 (2007) 640-653): [x1, x2] = x5,
    # [x1, x3] = x6, [x2, x4] = eps x6, [x3, x4] = x5.  Its pencil's
    # Pfaffian is l^2 - eps m^2: a double root at eps = 0, no real root at
    # eps = -1.  n3+n3's is l m, two rational roots, and n3+n3 is the only
    # dim-6 catalog entry with dim C^1 = 2; so both get a grading, yet no
    # catalog entry is isomorphic to them, and `report --dim 6` omits them.
    n3n3 = fraction_brackets(get("n3+n3").algebra)
    dim6 = [key for key in catalog_keys() if get(key).algebra.dim == 6]
    assert [k for k in dim6 if _c1_dim(fraction_brackets(get(k).algebra), 6) == 2] == ["n3+n3"]
    assert pencil_discriminant(n3n3, 6) == 1
    betti = (1, 4, 8, 10, 8, 4, 1)
    assert oracle_betti(n3n3, 6) == list(betti)
    for eps, discriminant in ((0, 0), (-1, -4)):
        brackets = {(0, 1): {4: 1}, (0, 2): {5: 1}, (2, 3): {4: 1}}
        if eps:
            brackets[1, 3] = {5: eps}
        alg = LieAlgebra.from_brackets(f"L6,22({eps})", 6, brackets)
        assert _c1_dim(brackets, 6) == 2
        assert pencil_discriminant(brackets, 6) == discriminant
        assert oracle_betti(brackets, 6) == list(betti)
        assert betti_numbers(alg).betti == betti
        assert _verdicts_in_four_bases(alg) == [EXHIBITED] * 4, eps


# The blocks of `oracles.pencil_two_step` that fit in v <= 6: singular L_0-L_2,
# Jordan pairs J_1-J_3 at 0, 1 and infinity, and the t^2 + 1 block.
PENCIL_BLOCKS = (
    [("L", e) for e in (0, 1, 2)]
    + [("J", k, lam) for k in (1, 2, 3) for lam in (0, 1, None)]
    + [("C",)]
)


def test_pencil_verdicts_do_not_depend_on_the_basis():
    # Two-step algebras of dims 5-8 with dim C^1 = 2, one per list of blocks
    # with v = n - 2 = 3-6.  The Kronecker type of the pencil is their
    # invariant (Gauger 1973), and with v <= 6 a pencil has at most three
    # distinct eigenvalues, which a change of basis of C^1 moves to 0, 1
    # and infinity.
    lists = []
    for r in range(1, 7):
        for blocks in combinations_with_replacement(PENCIL_BLOCKS, r):
            n, brackets = pencil_two_step(blocks)
            if 5 <= n <= 8 and _c1_dim(brackets, n) == 2:
                lists.append(blocks)
    assert len(lists) == 56
    statuses = []
    for blocks in lists:
        n, brackets = pencil_two_step(blocks)
        verdicts = _verdicts_in_four_bases(LieAlgebra.from_brackets(str(blocks), n, brackets))
        assert verdicts == verdicts[:1] * 4, blocks
        statuses += verdicts
    assert (statuses.count(EXHIBITED), statuses.count(OBSTRUCTED)) == (176, 48)


def test_reproduce_classification_range():
    with pytest.raises(ValueError):
        reproduce_classification(9)
