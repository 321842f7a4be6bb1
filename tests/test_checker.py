import pytest

from nilqp import (
    ExactMatrix,
    abelian,
    apply_basis_change,
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

from conftest import moved_parity_sum, random_invertible_t


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


def test_reproduce_classification_range():
    with pytest.raises(ValueError):
        reproduce_classification(9)
