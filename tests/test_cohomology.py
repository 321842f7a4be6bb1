import random
from fractions import Fraction
from math import comb

import pytest

from nilqp import (
    Bigrading,
    CohomologyTable,
    ExactMatrix,
    LieAlgebra,
    abelian,
    apply_basis_change,
    betti_numbers,
    bigraded_cohomology,
    ce_differential,
    commutator_ideal,
    complexify,
    direct_sum,
    exterior_basis,
    top_class_bidegree,
    verify_bigrading,
)
from nilqp import bigrading, cohomology, kernel, liealg
from nilqp.catalog import catalog_keys, get
from nilqp.cohomology import _commutator_adapted_table, _core_table
from nilqp.liealg import lower_central_series, structure_table
from nilqp.errors import DegreeOutOfRange, GradingNotCompatible, NotNilpotent
from nilqp.scalars import Q0, Q1, Gaussian, Rational

from conftest import (
    carried_grading,
    count_scalar_arithmetic,
    random_gaussian_t,
    random_invertible_t,
    random_nilpotent,
)
from oracles import frac_rref, oracle_abelian_factor_dim, oracle_betti, oracle_differential

# Golden Betti numbers, produced by the independent Fraction oracle
# (tests/oracles.py) before the implementation was finished.
ORACLE_BETTI = {
    "n3": [1, 2, 2, 1],
    "n5": [1, 4, 5, 5, 4, 1],
    "n7": [1, 6, 14, 14, 14, 14, 6, 1],
    "filiform_4": [1, 2, 2, 2, 1],
    "filiform_5": [1, 2, 3, 3, 2, 1],
    "L5_parity": [1, 3, 6, 6, 3, 1],
    "n7_142": [1, 4, 11, 14, 14, 11, 4, 1],
    "n7_143": [1, 4, 11, 16, 16, 11, 4, 1],
    "N1_84_real": [1, 4, 14, 25, 28, 25, 14, 4, 1],
    "N1_82": [1, 6, 13, 22, 28, 22, 13, 6, 1],
    "N2_82": [1, 6, 13, 23, 30, 23, 13, 6, 1],
    "N3_82": [1, 6, 13, 22, 28, 22, 13, 6, 1],
    "N4_82": [1, 6, 15, 24, 28, 24, 15, 6, 1],
    "N5_82": [1, 6, 13, 22, 28, 22, 13, 6, 1],
    "g_sec6": [1, 4, 6, 9, 12, 9, 6, 4, 1],
    "n3+n3": [1, 4, 8, 10, 8, 4, 1],
}


def test_exterior_basis_lex_order():
    assert exterior_basis(4, 2) == (
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    )
    assert len(exterior_basis(9, 4)) == comb(9, 4)


def test_differential_degree_out_of_range():
    with pytest.raises(DegreeOutOfRange):
        ce_differential(get("n3").algebra, 4)


def test_differential_abelian_is_zero():
    a = abelian(4)
    for k in range(5):
        assert ce_differential(a, k).is_zero()


def test_differential_n3_degree_one():
    # d x1 = d y1 = 0, d z = -x1 ^ y1
    d1 = ce_differential(get("n3").algebra, 1)
    assert d1.column(0) == (Q0, Q0, Q0)
    assert d1.column(1) == (Q0, Q0, Q0)
    assert d1.column(2) == (Rational(-1), Q0, Q0)
    assert d1.rank() == 1


def test_differential_squares_to_zero_catalog_wide():
    for key in catalog_keys():
        alg = get(key).algebra
        for k in range(alg.dim):
            d_next = ce_differential(alg, k + 1)
            d_k = ce_differential(alg, k)
            if d_next.rows and d_k.rows:
                assert d_next.matmul(d_k).is_zero(), (key, k)


def test_jacobi_mutation_breaks_d_squared():
    # Same mutation as in test_liealg: [X1, Z] = X1 violates Jacobi, and the
    # complex built from it no longer satisfies d o d = 0.
    bad = LieAlgebra.from_brackets(
        "bad", 3, {(0, 1): {2: 1}, (0, 2): {0: 1}}, check=False
    )
    d1 = ce_differential(bad, 1)
    d2 = ce_differential(bad, 2)
    assert not d2.matmul(d1).is_zero()


def test_betti_n3_with_representatives():
    table = betti_numbers(get("n3").algebra, representatives=True)
    assert list(table.betti) == [1, 2, 2, 1]
    # H^1 = <x1, y1>
    assert table.representatives[1] == ((Q1, Q0, Q0), (Q0, Q1, Q0))
    # H^2 = <x1^z, y1^z> in the lex monomial order (01, 02, 12)
    assert table.representatives[2] == ((Q0, Q1, Q0), (Q0, Q0, Q1))
    # H^3 = <x1^y1^z>
    assert table.representatives[3] == ((Q1,),)


def test_betti_abelian_binomials():
    for n in range(0, 7):
        table = betti_numbers(abelian(n))
        assert list(table.betti) == [comb(n, k) for k in range(n + 1)]


@pytest.mark.parametrize("key", sorted(ORACLE_BETTI))
def test_betti_matches_independent_oracle(key):
    assert list(betti_numbers(get(key).algebra).betti) == ORACLE_BETTI[key]


def test_oracle_self_check_on_n5():
    # The frozen table itself came from the oracle; re-derive one entry.
    assert oracle_betti({(0, 2): {4: 1}, (1, 3): {4: 1}}, 5) == ORACLE_BETTI["n5"]


def _dual_ranks(alg, label):
    """rank d_k for k = 0..n, each d_k assembled and ranked on its own.

    Asserts rank d_k = rank d_{n-1-k}: betti_numbers mirrors the ranks of
    a unimodular algebra, so b_k = b_{n-k} holds by construction, and this
    identity is what the mirroring rests on.
    """
    n = alg.dim
    ranks = [ce_differential(alg, k).rank() for k in range(n + 1)]
    assert all(ranks[k] == ranks[n - 1 - k] for k in range(n)), (label, ranks)
    return ranks


def test_poincare_duality_and_euler_catalog_wide(rng):
    for key in catalog_keys():
        alg = get(key).algebra
        b = betti_numbers(alg).betti
        assert b[0] == 1 and b[-1] == 1 if alg.dim else b == (1,)
        assert b == tuple(reversed(b)), key
        if alg.dim >= 1:
            assert sum((-1) ** k * x for k, x in enumerate(b)) == 0, key
        _dual_ranks(alg, key)
        if alg.dim:
            moved = apply_basis_change(alg, random_invertible_t(alg.dim, rng))
            _dual_ranks(moved, (key, "moved"))
            carrier = alg if alg.field == "Qi" else complexify(alg)
            moved = apply_basis_change(carrier, random_gaussian_t(alg.dim, rng))
            _dual_ranks(moved, (key, "Gaussian"))


def test_dixmier_bound_catalog_wide():
    # Dixmier, Acta Sci. Math. Szeged 16 (1955) 246-250: a nilpotent Lie
    # algebra of dimension n >= 2 has b_k >= 2 for 0 < k < n.
    checked = 0
    for key in catalog_keys():
        alg = get(key).algebra
        if alg.dim >= 2:
            b = betti_numbers(alg).betti
            assert all(x >= 2 for x in b[1:-1]), (key, b)
            checked += 1
    assert checked >= 30


def test_bigraded_eg3_table():
    entry = get("n3")
    table = bigraded_cohomology(
        complexify(entry.algebra), entry.known_bigradings[0]
    )
    dims = table.bidegree_dims()
    assert dims == {
        (0, 0, 0): 1,
        (1, 1, 0): 1,
        (1, 0, 1): 1,
        (2, 2, 1): 1,
        (2, 1, 2): 1,
        (3, 2, 2): 1,
    }


def test_bigraded_blocks_sum_to_betti_catalog_wide(rng):
    # Also on copies moved by a rational and a Gaussian T, under the grading
    # carried along: the same table, whose blocks sum to the Betti numbers.
    for key in catalog_keys():
        entry = get(key)
        if not entry.known_bigradings:
            continue
        alg = entry.algebra
        carrier = alg if alg.field == "Qi" else complexify(alg)
        plain = betti_numbers(carrier).betti
        grading = entry.known_bigradings[0]
        table = bigraded_cohomology(carrier, grading)
        assert table.betti == plain, key
        dims = table.bidegree_dims()
        for (j, p, q), d in dims.items():
            assert dims.get((j, q, p)) == d, (key, j, p, q)
        for t in (random_invertible_t(alg.dim, rng), random_gaussian_t(alg.dim, rng)):
            moved = apply_basis_change(carrier, t)
            assert betti_numbers(moved).betti == plain, key
            assert bigraded_cohomology(moved, carried_grading(grading, t)) == table, key


def test_bigraded_abelian_diagonal():
    for n in (1, 3, 5):
        entry = get(f"abelian_{n}")
        table = bigraded_cohomology(
            complexify(entry.algebra), entry.known_bigradings[0]
        )
        dims = table.bidegree_dims()
        assert dims == {(p, p, p): comb(n, p) for p in range(n + 1)}


def test_bigraded_37d_h1_support():
    entry = get("37D")
    table = bigraded_cohomology(entry.algebra, entry.known_bigradings[0])
    h1 = {(p, q): d for (j, p, q), d in table.bidegree_dims().items() if j == 1}
    assert h1 == {(1, 0): 2, (0, 1): 2}


def test_bigraded_rejects_dependent_generators():
    # Three generators of rank 2: the (0, -1) one is twice the (-1, 0) one.
    n3c = complexify(get("n3").algebra)
    g = get("n3").known_bigradings[0]
    x = g.component(-1, 0).generators[0]
    dep = Bigrading.build(
        [
            (-1, 0, [x]),
            (0, -1, [tuple(2 * c for c in x)]),
            (-1, -1, g.component(-1, -1).generators),
        ]
    )
    with pytest.raises(GradingNotCompatible) as err:
        bigraded_cohomology(n3c, dep)
    assert str(err.value) == "grading has 3 generators of rank 2 in dimension 3"


def test_bigraded_rejects_incompatible_grading():
    n3c = complexify(get("n3").algebra)
    # Z placed at (-1, 0): the bracket [X1, Y1] = Z leaves its block.
    g = Bigrading.build(
        [
            (-1, 0, [(1, 0, 0), (0, 0, 1)]),
            (0, -1, [(0, 1, 0)]),
        ]
    )
    with pytest.raises(GradingNotCompatible):
        bigraded_cohomology(n3c, g)


def _graded_cases(rng):
    """``(label, L, grading)``: every catalog known grading on its algebra over Q(i),
    then carried into bases moved by a rational and by a Gaussian T."""
    for key in catalog_keys():
        entry = get(key)
        alg = entry.algebra if entry.algebra.field == "Qi" else complexify(entry.algebra)
        for t, g in enumerate(entry.known_bigradings):
            yield f"{key}.{t}", alg, g
            for move in (random_invertible_t, random_gaussian_t):
                m = move(alg.dim, rng)
                yield f"{key}.{t} {move.__name__}", apply_basis_change(alg, m), carried_grading(g, m)


def test_grading_table_is_the_moved_table(monkeypatch, rng):
    # Solving each bracket in its target component gives the constants that
    # inverting the whole basis gives, in the same lowest terms and order,
    # and no compatible grading falls back to the inverse.
    moved_table = cohomology._moved_table
    fallbacks = []

    def logged(*args):
        fallbacks.append(args)
        return moved_table(*args)

    monkeypatch.setattr(cohomology, "_moved_table", logged)
    checked = 0
    for label, alg, g in _graded_cases(rng):
        gens, den = g.kernel_rows(alg.dim)
        rows = [row for comp_rows in gens.values() for row in comp_rows]
        field = "Qi" if any(y for row in rows for _, y in row.values()) else "Q"
        want = moved_table(alg, rows, den, field)[0]
        got = cohomology._grading_table(alg, gens, den)[0]
        assert got == want and list(got.rows) == list(want.rows), label
        checked += 1
    assert not fallbacks
    assert checked >= 80  # 28 known gradings, in three bases each


def test_grading_not_compatible_keeps_its_text(rng):
    # The first offending constant is read off the inverse, so a grading
    # whose bracket leaves its target names the same entry in any basis,
    # and generators that are not a basis report their rank.
    n3c = complexify(get("n3").algebra)
    g = Bigrading.build([(-1, 0, [(1, 0, 0), (0, 0, 1)]), (0, -1, [(0, 1, 0)])])
    leaves = "d maps bidegree (1, 0) monomial (1,) to (1, 1) monomial (0, 2) in degree 1"
    cases = [(n3c, g, leaves)]
    for move in (random_invertible_t, random_gaussian_t):
        t = move(3, rng)
        cases.append((apply_basis_change(n3c, t), carried_grading(g, t), leaves))
    # N3_82's last generator replaced by the sum of its first two: rank 7.
    entry = get("N3_82")
    alg, known = complexify(entry.algebra), entry.known_bigradings[0]
    first = [v for c in known.components for v in c.generators][:2]
    last = known.components[-1]
    dep = Bigrading.build(
        (c.p, c.q, c.generators[:-1] + (tuple(map(sum, zip(*first))),) if c is last else c.generators)
        for c in known.components
    )
    rank7 = "grading has 8 generators of rank 7 in dimension 8"
    cases.append((alg, dep, rank7))
    t = random_gaussian_t(8, rng)
    cases.append((apply_basis_change(alg, t), carried_grading(dep, t), rank7))
    for target, grading, text in cases:
        with pytest.raises(GradingNotCompatible) as err:
            bigraded_cohomology(target, grading)
        assert str(err.value) == text


@pytest.mark.parametrize(
    "key, brackets",
    [("N1_82", 9), ("N3_82", 9), ("N5_82", 9), ("n7", 9), ("g_sec6", 9), ("N1_84", 6), ("37B", 6)],
)
def test_grading_table_brackets_each_conjugate_pair_once(monkeypatch, key, brackets):
    # Every table here is real.  The 6 generators that are not tested central
    # give 15 pairs, and a pair whose rows are the conjugates of a pair
    # bracketed before, or their negatives, is read off it: 9 are formed
    # where conj U is U's conjugate row by row, and 9 on g_sec6, whose
    # (-1, -1) rows are purely imaginary (conj z = -z).  N1_84 and 37B are
    # graded by real unit vectors, each its own conjugate, so all 6 pairs of
    # their 4 generators outside the (-1, -1) component are formed.
    # Verification reads the same loop, so it forms as many in either mode,
    # also on g_sec6's general shape, whose support check ranks the table.
    calls = [0]
    original = liealg._zi_bracket

    def counted(*args):
        calls[0] += 1
        return original(*args)

    for module in (bigrading, cohomology, liealg):
        if hasattr(module, "_zi_bracket"):
            monkeypatch.setattr(module, "_zi_bracket", counted)
    entry = get(key)
    alg = entry.algebra if entry.algebra.field == "Qi" else complexify(entry.algebra)
    grading = entry.known_bigradings[0]
    bigraded_cohomology(alg, grading)
    assert calls[0] == brackets
    for mode in ("strict", "lax"):
        calls[0] = 0
        assert verify_bigrading(alg, grading, mode).valid
        assert calls[0] == brackets, mode


def test_top_class_bidegrees():
    for n in (1, 2, 4):
        entry = get(f"abelian_{n}")
        assert top_class_bidegree(
            complexify(entry.algebra), entry.known_bigradings[0]
        ) == (n, n)
    n3e = get("n3")
    assert top_class_bidegree(
        complexify(n3e.algebra), n3e.known_bigradings[0]
    ) == (2, 2)
    n84 = get("N1_84")
    assert top_class_bidegree(n84.algebra, n84.known_bigradings[0]) == (6, 6)
    g6 = get("g_sec6")
    assert top_class_bidegree(
        complexify(g6.algebra), g6.known_bigradings[0]
    ) == (7, 7)


def test_differential_matches_oracle_on_moved_catalog(rng):
    # Basis changes make the structure constants dense, so every sign of the
    # differential is exercised.
    for key in catalog_keys():
        alg = get(key).algebra
        if alg.field != "Q" or not alg.dim:
            continue
        moved = apply_basis_change(alg, random_invertible_t(alg.dim, rng))
        brackets = {
            ij: {t: Fraction(c.num, c.den) for t, c in coeffs.items()}
            for ij, coeffs in moved.bracket_map().items()
        }
        for k in range(moved.dim + 1):
            got = ce_differential(moved, k).entries
            want = oracle_differential(brackets, moved.dim, k)
            assert [[Fraction(x.num, x.den) for x in r] for r in got] == want, (key, k)


def test_differential_of_complexification_stays_over_qi():
    # In this basis of n3 every entry of d_1 is nonzero, so no zero of the
    # field's type is left in the matrix to decide its field.
    t = ExactMatrix([[1, 1, 1], [1, 2, 1], [1, 3, 2]])
    dense_n3 = apply_basis_change(get("n3").algebra, t)
    assert all(all(row) for row in ce_differential(dense_n3, 1).entries)
    keys = ("n5", "filiform_5", "N1_84_real", "g_sec6")
    for alg in [dense_n3] + [get(key).algebra for key in keys]:
        key = alg.name
        lc = complexify(alg)
        # k = n included: d_n has no rows, and its field is Q(i) all the same.
        for k in range(alg.dim + 1):
            d = ce_differential(lc, k)
            assert d.field == "Qi", (key, k)
            assert all(type(x) is Gaussian for row in d.entries for x in row), (key, k)
            assert d == ce_differential(alg, k), (key, k)


def test_differential_over_qi_matches_oracle_by_parts():
    # d is linear in the constants, so its real and imaginary parts are the
    # oracle's differentials of the constants' real and imaginary parts.
    # The catalog stores real constants over Q(i), with a real structure
    # other than the identity; a Gaussian change of basis makes them complex.
    stored = [get(key).algebra for key in ("37B", "37D", "N1_84")]
    rng = random.Random(5)
    moved = [
        apply_basis_change(alg, random_gaussian_t(alg.dim, rng))
        for alg in (complexify(get("N4_82").algebra), stored[0])
    ]
    imaginary = []
    for alg in stored + moved:
        consts = [
            (ij, t, c if type(c) is Gaussian else Gaussian(c))
            for ij, coeffs in alg.bracket_map().items()
            for t, c in coeffs.items()
        ]
        imaginary.append(any(c.im for _, _, c in consts))
        parts = []
        for part in ("re", "im"):
            brackets: dict = {}
            for ij, t, c in consts:
                x = getattr(c, part)
                brackets.setdefault(ij, {})[t] = Fraction(x.num, x.den)
            parts.append(brackets)
        for k in range(alg.dim + 1):
            d = ce_differential(alg, k)
            re, im = (oracle_differential(b, alg.dim, k) for b in parts)
            assert (d.rows, d.cols, d.field) == (len(re), comb(alg.dim, k), "Qi")
            got = [
                [(Fraction(x.re.num, x.re.den), Fraction(x.im.num, x.im.den)) for x in row]
                for row in d.entries
            ]
            assert got == [list(zip(a, b)) for a, b in zip(re, im)], (alg.name, k)
    assert imaginary == [False, False, False, True, True]


def _fraction_brackets(alg):
    return {
        ij: {t: Fraction(c.num, c.den) for t, c in coeffs.items()}
        for ij, coeffs in alg.bracket_map().items()
    }


# Rational forms of the Q(i) catalog entries.
REAL_FORMS = {"37B": "n7_143", "37D": "n7_142", "N1_84": "N1_84_real"}
GRADED = sorted(key for key in catalog_keys() if get(key).known_bigradings)


@pytest.mark.parametrize("key", GRADED)
def test_qi_moved_by_gaussian_denominators(key, rng):
    # The bigraded cohomology of an entry (complexified over Q) under its
    # grading is that of the entry moved by a Gaussian or a rational T under
    # the grading carried along.
    entry = get(key)
    alg, grading = entry.algebra, entry.known_bigradings[0]
    if alg.field == "Q":
        alg = complexify(alg)
    want = bigraded_cohomology(alg, grading)
    gaussian, rational = random_gaussian_t(alg.dim, rng), random_invertible_t(alg.dim, rng)
    for t in (gaussian, rational):
        moved = apply_basis_change(alg, t)
        assert bigraded_cohomology(moved, carried_grading(grading, t)) == want
    if key not in REAL_FORMS:
        return
    moved = apply_basis_change(alg, gaussian)
    consts = [c for coeffs in moved.bracket_map().values() for c in coeffs.values()]
    assert any(c.re and c.im and c.re.den != c.im.den for c in consts)
    real = get(REAL_FORMS[key]).algebra
    assert list(betti_numbers(moved).betti) == oracle_betti(
        _fraction_brackets(real), real.dim
    )


# Solvable, not nilpotent and not unimodular: b_n = 0 and Poincare duality
# fails.  Some tr ad X_t is nonzero, so betti_numbers ranks every degree:
# its half-complex shortcut is gated on tr ad = 0.
SOLVABLE = {
    "r2": (2, {(0, 1): {1: 1}}),
    "r3_diag": (3, {(0, 1): {1: 1}, (0, 2): {2: 1}}),
    "r3_jordan": (3, {(0, 1): {1: 1, 2: 1}, (0, 2): {2: 1}}),
    "r3_ratio": (3, {(0, 1): {1: 1}, (0, 2): {2: Rational(1, 2)}}),
    "heis_ext": (4, {(0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 2}, (1, 2): {3: 1}}),
}


@pytest.mark.parametrize("key", sorted(SOLVABLE))
def test_betti_of_solvable_non_unimodular_matches_oracle(key, rng):
    dim, brackets = SOLVABLE[key]
    alg = LieAlgebra.from_brackets(key, dim, brackets)
    want = oracle_betti(_fraction_brackets(alg), dim)
    assert want != list(reversed(want))
    assert list(betti_numbers(alg).betti) == want
    moved = apply_basis_change(alg, random_invertible_t(dim, rng))
    assert list(betti_numbers(moved).betti) == want


# Unimodular (tr ad = 0) but not nilpotent: Poincare duality holds all the
# same, so betti_numbers ranks only half of the complex.
UNIMODULAR = {
    # sl_2 in the basis H, E, F.
    "sl2": (3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}),
    # r_3 with ad X_0 = diag(1, -1) on span{X_1, X_2}.
    "r3_hyperbolic": (3, {(0, 1): {1: 1}, (0, 2): {2: -1}}),
    # e(2): X_0 rotates the plane span{X_1, X_2}.
    "e2": (3, {(0, 1): {2: 1}, (0, 2): {1: -1}}),
    "sl2+r3_hyperbolic": (6, {
        (0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1},
        (3, 4): {4: 1}, (3, 5): {5: -1},
    }),
}


def count_rank_calls(monkeypatch) -> list:
    """Wrap `kernel.rank_q` and `rank_qi` to log the number of columns of each call."""
    calls = []
    for name in ("rank_q", "rank_qi"):

        def counted(rows, ncols, _rank=getattr(kernel, name)):
            calls.append(ncols)
            return _rank(rows, ncols)

        monkeypatch.setattr(kernel, name, counted)
    return calls


@pytest.mark.parametrize("key", sorted(UNIMODULAR))
def test_betti_of_unimodular_non_nilpotent_matches_oracle(key, rng, monkeypatch):
    dim, brackets = UNIMODULAR[key]
    alg = LieAlgebra.from_brackets(key, dim, brackets)
    with pytest.raises(NotNilpotent):
        lower_central_series(alg)
    want = oracle_betti(_fraction_brackets(alg), dim)
    assert want == list(reversed(want))
    moved = apply_basis_change(alg, random_invertible_t(dim, rng))
    gaussian = apply_basis_change(complexify(alg), random_gaussian_t(dim, rng))
    calls = count_rank_calls(monkeypatch)
    for copy in (alg, moved, gaussian):
        calls.clear()
        assert list(betti_numbers(copy).betti) == want, copy.name
        assert len(calls) <= (dim - 1) // 2, copy.name
        _dual_ranks(copy, copy.name)


def test_rank_calls_follow_unimodularity(monkeypatch, rng):
    # A moved dim-8 nilpotent algebra ranks d_4, d_5, d_6 only; each
    # solvable non-unimodular algebra ranks d_1 .. d_{n-1}, as does r_2
    # complexified and moved by a Gaussian T.
    calls = count_rank_calls(monkeypatch)
    for key in ("N1_82", "g_sec6", "N1_84"):
        alg = get(key).algebra
        moved = apply_basis_change(alg, random_invertible_t(8, rng))
        calls.clear()
        betti_numbers(moved)
        assert calls == [comb(8, k) for k in (4, 5, 6)], key
    for key, (dim, brackets) in sorted(SOLVABLE.items()):
        alg = LieAlgebra.from_brackets(key, dim, brackets)
        want = oracle_betti(_fraction_brackets(alg), dim)
        copies = [alg, apply_basis_change(alg, random_invertible_t(dim, rng))]
        if key == "r2":
            copies.append(apply_basis_change(complexify(alg), random_gaussian_t(dim, rng)))
        for copy in copies:
            calls.clear()
            assert list(betti_numbers(copy).betti) == want, copy.name
            assert calls == [comb(dim, k) for k in range(1, dim)], copy.name


def test_bigraded_rank_calls_cover_the_upper_half(monkeypatch, rng):
    # Every graded catalog entry of dimension n >= 4, and a moved copy under
    # the grading carried along, assembles d_k for (n-1)/2 <= k <= n-2 only
    # and ranks only its blocks; an abelian one assembles and ranks nothing.
    degrees = []
    assemble = cohomology._assemble

    def logged(n, k, *args):
        degrees.append(k)
        return assemble(n, k, *args)

    monkeypatch.setattr(cohomology, "_assemble", logged)
    calls = count_rank_calls(monkeypatch)
    checked = 0
    for key in GRADED:
        entry = get(key)
        alg, grading = entry.algebra, entry.known_bigradings[0]
        n = alg.dim
        if n < 4:
            continue
        carrier = alg if alg.field == "Qi" else complexify(alg)
        t = random_invertible_t(n, rng)
        half = [] if not alg.brackets else list(range(n // 2, n - 1))
        moved = apply_basis_change(carrier, t)
        for target, g in ((carrier, grading), (moved, carried_grading(grading, t))):
            degrees.clear()
            calls.clear()
            bigraded_cohomology(target, g)
            assert degrees == half, key
            assert set(calls) <= {comb(n, k) for k in half}, key
            assert len(calls) >= len(half), key
        checked += bool(half)
    assert checked >= 10


@pytest.mark.parametrize("n", range(3, 7))
def test_betti_of_random_nilpotent_algebras_match_oracle(n):
    rng = random.Random(n)
    for _ in range(4):
        alg = random_nilpotent(n, rng)
        want = oracle_betti(_fraction_brackets(alg), n)
        assert list(betti_numbers(alg).betti) == want, alg.bracket_map()
        moved = apply_basis_change(complexify(alg), random_gaussian_t(n, rng))
        assert list(betti_numbers(moved).betti) == want, alg.bracket_map()


@pytest.mark.parametrize("n", range(7, 10))
def test_random_nilpotent_algebras_beyond_the_oracle(n):
    # Past the Fraction oracle's reach: b_1 = n - dim C^1, Euler
    # characteristic 0, Dixmier's bound, and Betti numbers from half the
    # complex equal to those from every rank d_k, which satisfy rank d_k =
    # rank d_{n-1-k}.
    rng = random.Random(n)
    for _ in range(2):
        alg = random_nilpotent(n, rng)
        b = betti_numbers(alg).betti
        assert b[1] == n - commutator_ideal(alg).dim, alg.bracket_map()
        assert sum((-1) ** k * x for k, x in enumerate(b)) == 0, alg.bracket_map()
        assert all(x >= 2 for x in b[1:-1]), alg.bracket_map()
        ranks = _dual_ranks(alg, alg.bracket_map())
        full = [comb(n, k) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(n + 1)]
        assert list(b) == full, alg.bracket_map()
        moved = apply_basis_change(alg, random_invertible_t(n, rng))
        assert betti_numbers(moved).betti == b, alg.bracket_map()


# -- Betti numbers ranked in a basis adapted to C^1 = [g, g] -------------------

# The dims 9-10 sums of the benchmark's ``betti`` workload.
BETTI_SUMS = (
    ("n3", "n3", "n3"),
    ("n5", "n3", "abelian_1"),
    ("N3_82", "abelian_1"),
    ("n7", "abelian_2"),
    ("n3", "n3", "abelian_4"),
)


def _sum(keys):
    alg = get(keys[0]).algebra
    for key in keys[1:]:
        alg = direct_sum(alg, get(key).algebra)
    return alg


def _c1_pivots(alg):
    return [next(j for j, x in enumerate(v) if x) for v in commutator_ideal(alg).vectors()]


def _rational_bases():
    bases = [get(key).algebra for key in catalog_keys() if get(key).algebra.field == "Q"]
    return bases + [_sum(keys) for keys in BETTI_SUMS]


def test_adapted_table_closes_the_complement_generators():
    # No constant of the adapted table lands on one of the first
    # n - dim C^1 basis vectors, so their dual generators are closed.
    for alg in _rational_bases():
        moved = apply_basis_change(alg, random_invertible_t(alg.dim, random.Random(3)))
        table = _commutator_adapted_table(moved)
        closed = moved.dim - commutator_ideal(moved).dim
        assert all(k >= closed for row in table.rows.values() for k, _ in row), alg.name
        assert list(table.rows) == sorted(table.rows), alg.name
        assert all(i < j for i, j in table.rows), alg.name


def test_betti_of_moved_rational_algebras_match_oracle(rng):
    interleaved = False
    for alg in _rational_bases():
        want = oracle_betti(_fraction_brackets(alg), alg.dim)
        assert list(betti_numbers(alg).betti) == want, alg.name
        for _ in range(2):
            moved = apply_basis_change(alg, random_invertible_t(alg.dim, rng))
            assert list(betti_numbers(moved).betti) == want, alg.name
            # C^1's pivots with a complement column on both sides of one.
            pivots = _c1_pivots(moved)
            free = set(range(moved.dim)) - set(pivots)
            interleaved = interleaved or any(min(free) < p < max(free) for p in pivots)
    assert interleaved


def test_betti_of_complexifications_moved_by_gaussian_t_match_oracle(rng):
    for alg in _rational_bases():
        if alg.dim > 9:
            continue
        want = oracle_betti(_fraction_brackets(alg), alg.dim)
        moved = apply_basis_change(complexify(alg), random_gaussian_t(alg.dim, rng))
        assert moved.field == "Qi"
        assert list(betti_numbers(moved).betti) == want, alg.name


# -- Kunneth over the abelian factor: L = core + Q^k ---------------------------


def _times_one_plus_t(betti, k):
    """The coefficients of (sum_j b_j t^j) (1 + t)^k."""
    for _ in range(k):
        betti = [a + b for a, b in zip(betti + [0], [0] + betti)]
    return betti


def _moved_copies(alg, rng):
    """``alg`` moved over Q, and its complexification moved by a Gaussian T."""
    n = alg.dim
    return (
        apply_basis_change(alg, random_invertible_t(n, rng)),
        apply_basis_change(complexify(alg), random_gaussian_t(n, rng)),
    )


def test_betti_of_moved_abelian_sums_match_oracle_or_kunneth(rng):
    # L + Q^k for each non-abelian rational catalog entry L and k = 1..4,
    # moved over Q and over Q(i): the Fraction oracle on the sum up to
    # dim 8, and beyond it L's oracle Betti numbers times (1 + t)^k.  (The
    # oracle costs about 0.1 s a sum at dim 9 and 0.45 s at dim 10; the
    # sums of dims 9-10 in BETTI_SUMS meet it in the test above.)
    checked = set()
    for key in catalog_keys():
        alg = get(key).algebra
        if alg.field != "Q" or not alg.brackets:
            continue
        base = oracle_betti(_fraction_brackets(alg), alg.dim)
        for k in range(1, 5):
            total = direct_sum(alg, abelian(k))
            n = total.dim
            if n <= 8:
                want = oracle_betti(_fraction_brackets(total), n)
                assert want == _times_one_plus_t(base, k), total.name
            else:
                want = _times_one_plus_t(base, k)
            for copy in _moved_copies(total, rng):
                assert list(betti_numbers(copy).betti) == want, (copy.name, copy.field)
            checked.add(n > 8)
    assert checked == {False, True}


def test_betti_of_a_solvable_algebra_plus_an_abelian_factor(rng):
    # r_2 + Q^2 ([X0, X1] = X1) is not nilpotent, yet the core span(X0, X1)
    # holds C^1 and is an ideal, so the Kunneth split still applies.
    alg = LieAlgebra.from_brackets("r2+C2", 4, {(0, 1): {1: 1}})
    want = [1, 3, 3, 1, 0]
    assert oracle_betti(_fraction_brackets(alg), 4) == want
    for copy in (alg, *_moved_copies(alg, rng)):
        assert list(betti_numbers(copy).betti) == want, copy.name
        core, k = _core_table(_commutator_adapted_table(copy), 4)
        assert k == 2, copy.name
        assert set(core.rows) == {(0, 1)}, copy.name


def test_core_table_drops_the_abelian_factor(rng):
    # The positions dropped are dim Z - dim(Z n C^1) by a Fraction oracle,
    # on every rational catalog entry plus Q^0..Q^3, unmoved, moved, and
    # complexified and moved; the core's table splits off nothing more and
    # keeps every constant on C^1's positions.
    for key in catalog_keys():
        alg = get(key).algebra
        if alg.field != "Q":
            continue
        for extra in range(4):
            total = direct_sum(alg, abelian(extra)) if extra else alg
            n = total.dim
            want = oracle_abelian_factor_dim(_fraction_brackets(total), n)
            copies = (total, *_moved_copies(total, rng)) if n <= 9 else (total,)
            for copy in copies:
                c1_dim = commutator_ideal(copy).dim
                core, k = _core_table(_commutator_adapted_table(copy), n)
                assert k == want, (copy.name, copy.field)
                assert _core_table(core, n - k)[1] == 0, copy.name
                constants = {m for row in core.rows.values() for m, _ in row}
                assert constants <= set(range(n - k - c1_dim, n - k)), copy.name


def _qi_algebra_with_gaussian_constant():
    # X2' = g X2, X3' = g X3, X4' = g X4 gives the rational constants
    # [X0, X1] = X2', [X0, X2'] = X3', [X1, X2'] = 3/2 X4'.
    g = Gaussian(Rational(1, 2), Rational(1, 3))
    return LieAlgebra.from_brackets(
        "qg", 5, {(0, 1): {2: g}, (0, 2): {3: 1}, (1, 2): {4: Rational(3, 2)}}, field="Qi"
    )


def test_betti_of_qi_algebra_with_gaussian_constant(rng):
    alg = _qi_algebra_with_gaussian_constant()
    assert alg.field == "Qi"
    want = oracle_betti(
        {(0, 1): {2: Fraction(1)}, (0, 2): {3: Fraction(1)}, (1, 2): {4: Fraction(3, 2)}}, 5
    )
    assert list(betti_numbers(alg).betti) == want
    for _ in range(3):
        moved = apply_basis_change(alg, random_invertible_t(5, rng))
        assert list(betti_numbers(moved).betti) == want


def test_betti_in_low_dimensions_and_abelian():
    for field in ("Q", "Qi"):
        for n in range(0, 5):
            assert list(betti_numbers(abelian(n, field)).betti) == [
                comb(n, k) for k in range(n + 1)
            ]
    # C^1 = 0 in a basis where no unit vector is special.
    t = ExactMatrix([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    assert list(betti_numbers(apply_basis_change(abelian(3), t)).betti) == [1, 3, 3, 1]
    r2 = LieAlgebra.from_brackets("r2", 2, {(0, 1): {1: 1}})
    assert list(betti_numbers(r2).betti) == [1, 1, 0]
    assert list(betti_numbers(complexify(r2)).betti) == [1, 1, 0]
    moved = apply_basis_change(r2, ExactMatrix([[1, 1], [1, 2]]))
    assert list(betti_numbers(moved).betti) == [1, 1, 0]


def test_betti_with_and_without_representatives_agree(rng):
    algebras = []
    for key in catalog_keys():
        alg = get(key).algebra
        if alg.dim > 7:
            continue
        algebras.append(alg)
        if alg.dim:
            algebras.append(apply_basis_change(alg, random_invertible_t(alg.dim, rng)))
        if alg.field == "Q" and 0 < alg.dim <= 5:
            algebras.append(
                apply_basis_change(complexify(alg), random_gaussian_t(alg.dim, rng))
            )
    for alg in algebras:
        plain = betti_numbers(alg)
        assert plain.representatives is None
        full = betti_numbers(alg, representatives=True)
        assert plain.betti == full.betti, alg.name
        assert [len(full.representatives[k]) for k in range(alg.dim + 1)] == list(
            plain.betti
        ), alg.name


def _fraction_representatives(alg):
    """The canonical representatives from oracle differentials and Fraction RREFs.

    Each cocycle of the RREF basis of ker d_k is reduced against the RREF
    of the span of im d_{k-1} and the representatives kept before it.
    """
    n = alg.dim
    brackets = _fraction_brackets(alg)
    reps = {}
    for k in range(n + 1):
        ncols = comb(n, k)
        red, pivots = frac_rref(oracle_differential(brackets, n, k), ncols)
        null = []
        for f in sorted(set(range(ncols)) - set(pivots)):
            v = [Fraction(int(j == f)) for j in range(ncols)]
            for row, p in zip(red, pivots):
                v[p] = -row[f]
            null.append(v)
        cocycles, dim = frac_rref(null, ncols)
        image = [list(col) for col in zip(*oracle_differential(brackets, n, k - 1))] if k else []
        kept = []
        span = frac_rref(image, ncols)
        for v in cocycles[: len(dim)]:
            for row, p in zip(*span):
                v = [x - v[p] * y for x, y in zip(v, row)]
            if any(v):
                lead = next(x for x in v if x)
                kept.append([x / lead for x in v])
                span = frac_rref(image + kept, ncols)
        reps[k] = kept
    return reps


def test_representatives_match_fraction_reference(rng):
    # Up to dim 6: the Fraction reference takes seconds per algebra of dim 7.
    checked = 0
    for alg in _rational_bases():
        if not 0 < alg.dim <= 6:
            continue
        moved = apply_basis_change(alg, random_invertible_t(alg.dim, rng))
        reps = betti_numbers(moved, representatives=True).representatives
        got = {
            k: [[Fraction(x.num, x.den) for x in v] for v in vecs] for k, vecs in reps.items()
        }
        assert got == _fraction_representatives(moved), alg.name
        checked += 1
    assert checked >= 15


def test_representatives_make_no_scalar_arithmetic(monkeypatch, rng):
    # Cocycles, coboundaries and residuals stay integer rows until each
    # representative is decoded, over Q and over Q(i).
    algebras = []
    for key in ("n5", "filiform_5", "L5_parity", "N1_84", "37D"):
        alg = get(key).algebra
        algebras.append(apply_basis_change(alg, random_invertible_t(alg.dim, rng)))
    algebras.append(apply_basis_change(complexify(get("n5").algebra), random_gaussian_t(5, rng)))
    calls = count_scalar_arithmetic(monkeypatch)
    for alg in algebras:
        table = betti_numbers(alg, representatives=True)
        assert [len(vecs) for vecs in table.representatives.values()] == list(table.betti)
    assert calls == []
    Rational(1, 2) + Rational(1, 3)
    assert calls == ["Rational.__add__"]


def test_representative_scalar_type_follows_structure_table_field():
    # The representatives are Gaussian, in every degree, exactly when the
    # algebra and so its structure table are over Q(i), whatever the types
    # of its constants.
    qg = _qi_algebra_with_gaussian_constant()
    n3 = get("n3").algebra
    for alg, kind in ((qg, Gaussian), (n3, Rational), (complexify(n3), Gaussian)):
        assert structure_table(alg).field == alg.field
        assert (alg.field == "Qi") == (kind is Gaussian)
        reps = betti_numbers(alg, representatives=True).representatives
        assert [len(reps[k]) for k in range(alg.dim + 1)] == list(betti_numbers(alg).betti)
        assert {type(x) for vecs in reps.values() for v in vecs for x in v} == {kind}, alg.name
        assert all(next(x for x in v if x) == 1 for vecs in reps.values() for v in vecs)


def test_euler_characteristic():
    for key in catalog_keys():
        alg = get(key).algebra
        assert betti_numbers(alg).euler_characteristic() == (0 if alg.dim else 1), key
    assert betti_numbers(abelian(0)).euler_characteristic() == 1
    assert CohomologyTable(betti=(1, 2, 2, 1)).euler_characteristic() == 0
    assert CohomologyTable(betti=(1, 1, 0)).euler_characteristic() == 0
    assert CohomologyTable(betti=(1, 3, 1)).euler_characteristic() == -1


def _source_major_assemble(n, k, terms):
    """The source-major loop that `cohomology._assemble` replaced, kept as its reference.

    Each source monomial is walked, each of its factors x^m, and each term
    of d x^m; a term whose pair meets the rest of the monomial is skipped.
    """
    dst_index = cohomology._index(n, k + 1)
    rows: dict[int, dict] = {}
    summed = False
    for c, (mon, full) in enumerate(zip(exterior_basis(n, k), cohomology._index(n, k))):
        for m in mon:
            mterms = terms.get(m)
            if mterms is None:
                continue
            rest = full ^ (1 << m)
            # x^m sits in slot r_pos, which gives the Koszul sign (-1)^{r_pos}.
            r_pos = (full & ((1 << m) - 1)).bit_count()
            for pair, between, signed in mterms:
                if rest & pair:
                    continue
                # Sorting (i, j, *rest) takes one transposition per element of
                # rest below i and one per element below j; mod 2, that is
                # the number of elements between i and j.
                x = signed[(r_pos + (rest & between).bit_count()) & 1]
                r = dst_index[rest | pair]
                row = rows.get(r)
                if row is None:
                    rows[r] = {c: x}
                elif c not in row:
                    row[c] = x
                else:
                    y = row[c]
                    row[c] = (y[0] + x[0], y[1] + x[1])
                    summed = True
    if summed:
        for r in list(rows):
            row = {c: x for c, x in rows[r].items() if x != (0, 0)}
            if row:
                rows[r] = row
            else:
                del rows[r]
    return rows


def test_term_major_assembly_equals_the_source_major_loop(rng):
    # Every catalog entry, unmoved, moved over Q and (complexified if
    # rational) moved by a Gaussian T, in every degree 0 <= k < n: the same
    # rows as dicts.  Moved tables hold constants C_ij^m with m in {i, j}.
    # d_0 is zero, and ce_differential reaches k = 0 too.
    entries = diagonal = 0
    for key in catalog_keys():
        alg = get(key).algebra
        n = alg.dim
        if alg.field == "Q":
            copies = [alg, *_moved_copies(alg, rng)]
        else:
            copies = [alg, apply_basis_change(alg, random_gaussian_t(n, rng))]
        for copy in copies:
            table = structure_table(copy)
            diagonal += sum(m in ij for ij, row in table.rows.items() for m, _ in row)
            terms = cohomology._dual_terms(table)
            for k in range(n):
                got = cohomology._assemble(n, k, terms)
                assert got == _source_major_assemble(n, k, terms), (copy.name, copy.field, k)
                entries += sum(len(row) for row in got.values())
            if n:
                assert ce_differential(copy, 0).is_zero()
    assert entries > 50000 and diagonal > 100


@pytest.mark.parametrize(
    "name",
    [
        "N3_82+N3_82",
        "filiform_5+filiform_5+filiform_4",
        "n7+n7",
        "filiform_5+filiform_5+filiform_4@2",
        "n7+n7@2",
    ],
)
def test_betti_of_large_sums_is_the_kunneth_product(name):
    # Dims 14-16, unmoved: sparse tables whose ranks cost the elimination's
    # bookkeeping rather than its arithmetic.  Dim 14 moved by the seed after
    # "@": dense tables whose ranks run long chains of elimination steps,
    # each row keeping its content until it becomes a pivot.  H(L1 + L2) =
    # H(L1) (x) H(L2), on the factors' oracle Betti numbers.
    name, _, seed = name.partition("@")
    keys = name.split("+")
    alg, want = get(keys[0]).algebra, ORACLE_BETTI[keys[0]]
    for key in keys[1:]:
        alg = direct_sum(alg, get(key).algebra)
        factor = ORACLE_BETTI[key]
        want = [
            sum(want[i] * factor[j - i] for i in range(len(want)) if 0 <= j - i < len(factor))
            for j in range(len(want) + len(factor) - 1)
        ]
    if seed:
        alg = apply_basis_change(alg, random_invertible_t(alg.dim, random.Random(int(seed))))
    assert list(betti_numbers(alg).betti) == want
