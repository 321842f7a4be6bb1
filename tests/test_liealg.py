import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest

from nilqp import (
    ExactMatrix,
    LieAlgebra,
    Subspace,
    abelian,
    abelian_split_transformation,
    apply_basis_change,
    betti_numbers,
    center,
    check,
    commutator_ideal,
    complexify,
    direct_sum,
    lower_central_series,
    strip_abelian_factor,
    validate,
    verify_isomorphism,
)
from nilqp import kernel, liealg
from nilqp.catalog import catalog_keys, get
from nilqp.exact import check_real_structure
from nilqp.liealg import (
    _freeze_brackets,
    _is_central,
    _moved_table,
    _zi_bracket,
    structure_table,
)
from nilqp.errors import (
    AlreadyComplex,
    AmbientMismatch,
    DimensionMismatch,
    FieldMismatch,
    InvalidRealStructure,
    JacobiViolation,
    NotInvolution,
    NotNilpotent,
    SingularTransformation,
)
from nilqp.scalars import Gaussian, Rational

from conftest import fraction_brackets, held_once, random_gaussian_t, random_invertible_t
from oracles import (
    _c_matmul,
    frac_inverse_qi,
    frac_rank,
    frac_rref,
    frac_rref_qi,
    oracle_basis_change,
    oracle_bracket,
    oracle_centralizer_dim,
    oracle_jacobi_residual,
    vergne_q,
)


def n3():
    return get("n3").algebra


def test_validate_n3_lattice_admissible():
    report = validate(n3())
    assert report.valid and report.lattice_admissible


def test_validate_abelian():
    assert validate(abelian(4)).valid


def test_constants_over_q_are_rational(rng):
    # A Gaussian with zero imaginary part is read as its rational value,
    # and a non-real constant is refused: over Q the table is rational.
    for c in (Rational(1), Rational(-3, 2), Rational(7, 5)):
        alg = LieAlgebra.from_brackets("n3", 3, {(0, 1): {2: Gaussian(c, 0)}}, field="Q")
        ((_, ((_, got),)),) = alg.brackets
        assert type(got) is Rational and got == c
        assert validate(alg).lattice_admissible
    for c in (Gaussian(0, 1), Gaussian(Rational(1, 2), Rational(-1, 3))):
        with pytest.raises(FieldMismatch, match="not rational over Q"):
            LieAlgebra.from_brackets("x", 3, {(0, 1): {2: c}}, field="Q")
    # The table's field is the algebra's, on every catalog entry, a moved
    # copy and, over Q, its complexification.
    for key in catalog_keys():
        alg = get(key).algebra
        algebras = [alg]
        if alg.dim and alg.field == "Q":
            moved = apply_basis_change(alg, random_invertible_t(alg.dim, rng))
            algebras += [moved, complexify(moved)]
        elif alg.dim:
            algebras.append(apply_basis_change(alg, random_gaussian_t(alg.dim, rng)))
        for each in algebras:
            assert structure_table(each).field == each.field, each.name


def test_jacobi_violation_detected():
    # Adding [X1, Z] = X1 to n3 breaks Jacobi on (X1, Y1, Z); the residual
    # is -Z (checked by the independent oracle below).
    bad = {(0, 1): {2: 1}, (0, 2): {0: 1}}
    assert oracle_jacobi_residual(bad, 3, 0, 1, 2) != [0, 0, 0]
    with pytest.raises(JacobiViolation) as exc:
        LieAlgebra.from_brackets("bad", 3, bad)
    assert exc.value.triple == (0, 1, 2)
    assert tuple(exc.value.residual) == (Rational(0), Rational(0), Rational(-1))


def test_extra_bracket_making_algebra_solvable_is_caught_downstream():
    # [X1, Z] = Y1 added to n3 satisfies Jacobi (oracle-checked) but the
    # algebra is no longer nilpotent, so the series computation rejects it.
    brackets = {(0, 1): {2: 1}, (0, 2): {1: 1}}
    assert oracle_jacobi_residual(brackets, 3, 0, 1, 2) == [0, 0, 0]
    alg = LieAlgebra.from_brackets("solvable", 3, brackets)
    with pytest.raises(NotNilpotent):
        lower_central_series(alg)


def _realification(brackets, n):
    """The table over Q of the realification, basis X_a then i X_a, of (re, im) constants.

    With [X_a, X_b] = A + iB: [X_a, iX_b] = -B + iA, [X_b, iX_a] = B - iA
    and [iX_a, iX_b] = -A - iB, so its Jacobi residual on X_i, X_j, X_k is
    the complex one's real parts, then its imaginary parts.
    """
    out = {}
    for (a, b), cs in brackets.items():
        re = {k: x for k, (x, _) in cs.items()}
        im = {k: y for k, (_, y) in cs.items()}
        out[a, b] = {**re, **{n + k: y for k, y in im.items()}}
        out[a, n + b] = {**{k: -y for k, y in im.items()}, **{n + k: x for k, x in re.items()}}
        out[b, n + a] = {**im, **{n + k: -x for k, x in re.items()}}
        out[n + a, n + b] = {**{k: -x for k, x in re.items()}, **{n + k: -y for k, y in im.items()}}
    return out


def _validate_matches_jacobi_oracle(cand, where):
    """Whether ``cand`` is valid: `validate` fails exactly at the oracle's first failing triple.

    The triple, the residual, the text and the scalars of JacobiViolation
    are checked against the Fraction oracle on the realification.
    """
    n = cand.dim
    real = _realification(_pair_brackets(cand), n)
    triples = combinations(range(n), 3)
    want = next((t for t in triples if any(oracle_jacobi_residual(real, 2 * n, *t))), None)
    if want is None:
        assert validate(cand).valid, where
        return True
    with pytest.raises(JacobiViolation) as exc:
        validate(cand)
    residual = exc.value.residual
    assert exc.value.triple == want, where
    r = oracle_jacobi_residual(real, 2 * n, *want)
    assert [_pair(x) for x in residual] == list(zip(r[:n], r[n:])), where
    assert str(exc.value) == f"Jacobi identity fails on basis triple {want}; residual {residual}"
    scalar = Gaussian if cand.field == "Qi" else Rational
    assert {type(x) for x in residual} == {scalar}, where
    return False


@pytest.mark.parametrize("kind", ["Q", "Qi"])
def test_validate_agrees_with_jacobi_oracle(kind):
    # Valid tables (catalog algebras and Vergne's class-5 Q_6 moved by a
    # seeded T) and the same with one constant perturbed; `validate` fails
    # exactly at the first triple whose oracle residual is nonzero, and
    # reports that residual.
    rng = random.Random(11)
    extra = [Rational(1), Rational(-1, 2), Rational(3)]
    if kind == "Qi":
        extra += [Gaussian(0, 1), Gaussian(Rational(1, 3), -2)]
    q6 = LieAlgebra.from_brackets("Q6", *vergne_q(6))
    seen = set()
    for base in [get(key).algebra for key in ("n3", "n5", "L5_parity", "g_sec6")] + [q6]:
        n = base.dim
        for trial in range(4):
            if kind == "Qi":
                alg = apply_basis_change(complexify(base), random_gaussian_t(n, rng))
            else:
                alg = apply_basis_change(base, random_invertible_t(n, rng))
            brackets = alg.bracket_map()
            if trial % 2:
                i, j = sorted(rng.sample(range(n), 2))
                cs = brackets.setdefault((i, j), {})
                k = rng.randrange(n)
                cs[k] = cs.get(k, Rational(0)) + rng.choice(extra)
            cand = LieAlgebra.from_brackets("t", n, brackets, field=alg.field, check=False)
            seen.add(_validate_matches_jacobi_oracle(cand, base.name))
    assert seen == {True, False}
    # Q_6's [e_3, e_4] = e_6 is a bracket of two vectors of C^1, and Jacobi
    # on (e_1, e_2, e_4) nests it: [[e_1, e_2], e_4] = [e_3, e_4].  Each
    # perturbation of that constant fails, unmoved and moved.
    for c in extra:
        brackets = {ij: dict(cs) for ij, cs in vergne_q(6)[1].items()}
        brackets[2, 3][5] += c
        field = "Qi" if kind == "Qi" else "Q"
        cand = LieAlgebra.from_brackets("Q6'", 6, brackets, field=field, check=False)
        t = random_gaussian_t(6, rng) if kind == "Qi" else random_invertible_t(6, rng)
        for each in (cand, apply_basis_change(cand, t)):
            assert not _validate_matches_jacobi_oracle(each, (c, each.name))


def _c_matrix(pairs):
    """(re, im) Fraction rows as an `ExactMatrix` of Gaussian scalars."""

    def scalar(x, y):
        return Gaussian(Rational(x.numerator, x.denominator), Rational(y.numerator, y.denominator))

    return ExactMatrix([[scalar(x, y) for x, y in row] for row in pairs])


@pytest.mark.parametrize("n", [2, 4])
def test_involution_test_agrees_with_fraction_product(n):
    # S = T conj(T)^-1 is an antilinear involution for every invertible T;
    # S with one entry changed, most often, is not.  Both `validate` and
    # `check_real_structure` accept S exactly when S conj(S) = I in Fractions.
    rng = random.Random(n)
    seen = set()
    for trial in range(12):
        t = [[_pair(x) for x in row] for row in random_gaussian_t(n, rng).entries]
        conj_t = [[(x, -y) for x, y in row] for row in t]
        s = _c_matmul(t, frac_inverse_qi(conj_t))
        if trial % 2:
            r, c = rng.randrange(n), rng.randrange(n)
            s[r][c] = (s[r][c][0] + rng.choice([1, -1]), s[r][c][1] + Fraction(rng.randint(-1, 1), 2))
        square = _c_matmul(s, [[(x, -y) for x, y in row] for row in s])
        want = square == [[(Fraction(int(r == c)), Fraction(0)) for c in range(n)] for r in range(n)]
        seen.add(want)
        m = _c_matrix(s)
        alg = LieAlgebra.from_brackets("a", n, {}, field="Qi", real_structure=m, check=False)
        if want:
            assert validate(alg).valid
            check_real_structure(m)
        else:
            with pytest.raises(InvalidRealStructure, match="not an antilinear involution"):
                validate(alg)
            with pytest.raises(NotInvolution, match="is not the identity"):
                check_real_structure(m)
    assert seen == {True, False}


def test_invalid_real_structure_rejected():
    s = ExactMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(InvalidRealStructure):
        LieAlgebra.from_brackets(
            "bad_s", 3, {(0, 1): {2: 1}}, field="Qi", real_structure=s
        )


def test_real_structure_must_be_bracket_automorphism():
    # Swapping X1 <-> Y1 sends [X1, Y1] to [Y1, X1] = -Z, so S must also
    # negate Z; without that twist validation fails, over Q as over Q(i).
    # Over Q the twisted S is refused as well: there S must be the identity.
    s_bad = ExactMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    s_ok = ExactMatrix([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    for field in ("Qi", "Q"):
        with pytest.raises(InvalidRealStructure, match=r"automorphism on pair \(0, 1\)"):
            LieAlgebra.from_brackets(
                "swap_bad", 3, {(0, 1): {2: 1}}, field=field, real_structure=s_bad
            )
    alg = LieAlgebra.from_brackets(
        "swap_ok", 3, {(0, 1): {2: 1}}, field="Qi", real_structure=s_ok
    )
    assert validate(alg).valid
    with pytest.raises(InvalidRealStructure, match="over Q must be the identity"):
        LieAlgebra.from_brackets(
            "swap_ok", 3, {(0, 1): {2: 1}}, field="Q", real_structure=s_ok
        )
    alg = LieAlgebra.from_brackets(
        "identity", 3, {(0, 1): {2: 1}}, real_structure=ExactMatrix.identity(3)
    )
    assert validate(alg).valid


@pytest.mark.parametrize("check", [True, False])
def test_a_real_structure_of_the_wrong_shape_is_refused_where_it_is_encoded(check):
    # Before any search could read it: unchecked, a 2 x 2 S on a dim-3
    # algebra once built, and the search then reported a fixed space of
    # dimension 4.
    for s in (ExactMatrix.identity(2), ExactMatrix([[1, 0], [0, 1], [0, 0]])):
        with pytest.raises(InvalidRealStructure, match="^h: real structure has wrong shape$"):
            LieAlgebra.from_brackets(
                "h", 3, {(0, 1): {2: 1}}, field="Qi", real_structure=s, check=check
            )


@pytest.mark.parametrize("check", [True, False])
def test_a_non_real_structure_over_q_is_refused_where_it_is_encoded(check):
    # Unchecked, S = [[0, i], [-i, 0]] once built over Q: its view read the
    # zero matrix and conj_vector([1, 0]) returned (0, 0).  Checked, the
    # non-involutive S was refused as "not an antilinear involution".
    i = Gaussian(0, 1)
    for s in ([[0, i], [-i, 0]], [[0, i], [i, 0]], [[1, 0], [0, Gaussian(1, 1)]]):
        with pytest.raises(
            InvalidRealStructure, match="^a: a real structure over Q must be the identity$"
        ):
            LieAlgebra.from_brackets("a", 2, {}, real_structure=ExactMatrix(s), check=check)
    # The same S over Q(i), and a real Gaussian S over Q, are encoded.
    s = ExactMatrix([[0, i], [i, 0]])
    assert LieAlgebra.from_brackets("a", 2, {}, field="Qi", real_structure=s, check=check)
    s = ExactMatrix([[Gaussian(1, 0), 0], [0, 1]])
    alg = LieAlgebra.from_brackets("a", 2, {}, real_structure=s, check=check)
    assert alg.real_rows == liealg._identity(2)


def _qi_algebras(rng):
    """Algebras over Q(i) from every constructor, each with the S it should read."""
    out = []
    for key in catalog_keys():
        alg = get(key).algebra
        n = alg.dim
        if alg.field == "Q":
            alg = complexify(alg)
            out.append((alg, ExactMatrix.identity(n)))
        else:
            out.append((alg, alg.real_structure))
        for t in (random_invertible_t(n, rng), random_gaussian_t(n, rng)):
            moved = apply_basis_change(alg, t)
            want, want_real = oracle_basis_change(
                _pair_brackets(alg), n, _pair_rows(t), _pair_rows(alg.real_structure)
            )
            out.append((moved, _c_matrix(want_real) if n else ExactMatrix.empty(0)))
    n1_84 = get("N1_84").algebra
    for k in (0, 1, 3):
        out.append((abelian(k, "Qi"), ExactMatrix.identity(k)))
    for other in (abelian(2, "Qi"), complexify(get("n5").algebra), n1_84):
        for a, b in ((n1_84, other), (other, n1_84)):
            sa, sb = a.real_structure, b.real_structure
            block = sa.augment(ExactMatrix.zeros(a.dim, b.dim)).stack(
                ExactMatrix.zeros(b.dim, a.dim).augment(sb)
            )
            out.append((direct_sum(a, b), block))
    for base in (n1_84, complexify(get("n3").algebra)):
        alg = direct_sum(base, abelian(1, "Qi"))
        core, k = strip_abelian_factor(alg)
        t = abelian_split_transformation(alg)
        s = apply_basis_change(alg, t).real_structure
        out.append((core, ExactMatrix([s.row(r)[: core.dim] for r in range(core.dim)])))
    return out


def test_every_real_structure_over_qi_reads_gaussian(rng):
    # The rule for derived values: over Q(i) S reads `Gaussian` entries, a
    # matrix over "Qi", whatever its entries are and however the algebra
    # was made; its values are the oracle's or the blocks it is made of.
    cases = _qi_algebras(rng)
    for alg, want in cases:
        s = alg.real_structure
        assert s == want, alg.name
        if alg.dim:
            assert s.field == "Qi", alg.name
            assert {type(x) for row in s.entries for x in row} == {Gaussian}, alg.name
    assert len(cases) > 100


def test_lower_central_series_abelian():
    s = lower_central_series(abelian(3))
    assert s.nilpotency_class == 1
    assert [t.dim for t in s.terms] == [3, 0]


def test_lower_central_series_n3():
    s = lower_central_series(n3())
    assert s.nilpotency_class == 2
    assert [t.dim for t in s.terms] == [3, 1, 0]
    assert s.terms[1] == Subspace.from_spanning([[0, 0, 1]], ambient_dim=3)


def test_lower_central_series_filiform4():
    s = lower_central_series(get("filiform_4").algebra)
    assert s.nilpotency_class == 3
    assert [t.dim for t in s.terms] == [4, 2, 1, 0]


def test_center_and_commutator_n3():
    z = center(n3())
    c = commutator_ideal(n3())
    assert z == c == Subspace.from_spanning([[0, 0, 1]], ambient_dim=3)


def test_center_abelian():
    assert center(abelian(3)).dim == 3
    assert commutator_ideal(abelian(3)).dim == 0


def test_center_L5_matches_oracle():
    l5 = get("L5_parity").algebra
    brackets = {(0, 1): {3: 1}, (0, 2): {4: 1}}
    assert oracle_centralizer_dim(brackets, 5) == 2
    z = center(l5)
    assert z.dim == 2
    assert z == commutator_ideal(l5)
    assert z == Subspace.from_spanning(
        [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], ambient_dim=5
    )


def test_complexify():
    c = complexify(n3())
    assert c.field == "Qi"
    assert c.real_structure == ExactMatrix.identity(3)
    assert c.same_brackets(n3())
    with pytest.raises(AlreadyComplex):
        complexify(c)


def test_complexify_abelian():
    c = complexify(abelian(4))
    assert c.field == "Qi" and c.is_abelian()


def test_apply_basis_change_identity():
    same = apply_basis_change(n3(), ExactMatrix.identity(3))
    assert same.same_brackets(n3())


def test_apply_basis_change_rejects_singular():
    t = ExactMatrix([[1, 0, 0], [2, 0, 0], [0, 0, 1]])
    with pytest.raises(SingularTransformation):
        apply_basis_change(n3(), t)


def test_apply_basis_change_rejects_a_transformation_of_the_wrong_size():
    for t in (ExactMatrix.identity(2), ExactMatrix([[1, 0, 0], [0, 1, 0]])):
        with pytest.raises(DimensionMismatch, match="algebra has dim 3"):
            apply_basis_change(n3(), t)


def test_conj_vector_over_qi_needs_a_real_structure():
    bare = LieAlgebra.from_brackets("bare", 3, {(0, 1): {2: 1}}, field="Qi")
    with pytest.raises(InvalidRealStructure, match="bare: no real structure available"):
        bare.conj_vector([1, 0, 0])
    # Over Q the conjugation is the identity's, with or without S.
    assert n3().conj_vector([1, Gaussian(0, 2), 0]) == (1, Gaussian(0, -2), 0)


def test_bracket_refuses_vectors_and_indices_outside_the_algebra():
    L = get("n5").algebra  # [X1, X3] = [X2, X4] = X5
    e = [[int(k == t) for k in range(5)] for t in range(5)]
    assert L.bracket(e[0], e[2]) == L.bracket_basis(0, 2) == tuple(e[4])
    # A longer vector's extra entries were dropped, and a shorter one raised IndexError.
    for u in (e[0] + [1, 1], e[0][:2]):
        for args in ((u, e[2]), (e[2], u)):
            with pytest.raises(AmbientMismatch, match=f"lengths .*{len(u)}.* in dimension 5"):
                L.bracket(*args)
    with pytest.raises(AmbientMismatch):
        L.conj_vector(e[0] + [1, 1])
    # An index outside the basis gave the zero vector.
    for i, j in ((0, 7), (-1, 2), (2, 5)):
        with pytest.raises(IndexError, match="out of range 0..4"):
            L.bracket_basis(i, j)


def test_invariants_under_random_basis_change(rng):
    for key in ("n3", "n5", "L5_parity", "filiform_4", "g_sec6"):
        alg = get(key).algebra
        ref_class = lower_central_series(alg).nilpotency_class
        ref_center = center(alg).dim
        ref_comm = commutator_ideal(alg).dim
        ref_betti = betti_numbers(alg).betti
        for _ in range(3):
            t = random_invertible_t(alg.dim, rng)
            moved = apply_basis_change(alg, t)
            assert validate(moved).valid
            assert lower_central_series(moved).nilpotency_class == ref_class
            assert center(moved).dim == ref_center
            assert commutator_ideal(moved).dim == ref_comm
            assert betti_numbers(moved).betti == ref_betti


def test_structure_table_holds_one_row_per_bracket(rng):
    # Every catalog entry and a moved copy, each over Q and complexified:
    # the rows come in ascending (i, j), as L.brackets lists them, each
    # lists its targets k in ascending order with no zero pair, is real
    # over Q, and the denominator is the least common one of the constants.
    fields = set()
    for key in catalog_keys():
        alg = get(key).algebra
        for base in (alg, apply_basis_change(alg, random_invertible_t(alg.dim, rng))):
            for L in (base, complexify(base)) if base.field == "Q" else (base,):
                table = structure_table(L)
                assert list(table.rows) == sorted(table.rows), (key, L.field)
                assert list(table.rows) == [ij for ij, _ in L.brackets], (key, L.field)
                for row in table.rows.values():
                    ks = [k for k, _ in row]
                    assert ks == sorted(set(ks)), (key, L.field)
                    assert all(pair != (0, 0) for _, pair in row), (key, L.field)
                    if L.field == "Q":
                        assert all(y == 0 for _, (_, y) in row), key
                parts = [x for row in table.rows.values() for _, pair in row for x in pair]
                assert gcd(table.den, *parts) == 1, (key, L.field)
                fields.add(table.field)
    assert fields == {"Q", "Qi"}


_FIELDS = {"name", "dim", "field", "basis_names", "table", "real_rows", "_facts"}


def _leaves(x):
    """Every object reachable from ``x`` through tuples, lists and dicts, keys included."""
    if isinstance(x, (tuple, list)):
        for y in x:
            yield from _leaves(y)
    elif isinstance(x, dict):
        yield from _leaves(list(x.items()))
    else:
        yield x


def test_each_algebra_holds_its_constants_once(rng, monkeypatch):
    # What every constructor returns keeps its constants in the table alone
    # and its real structure in its rows alone, as ints: no scalar object,
    # no attribute beyond the fields and the memo, no memo of S, and
    # `brackets` and `real_structure` are decoded anew on each read.  No
    # constructor builds an `ExactMatrix` on the way.
    catalog = {key: get(key).algebra for key in ("n3", "n5", "N3_82", "N1_84", "filiform_4")}
    ts = [random_invertible_t(8, rng), random_gaussian_t(8, rng), random_invertible_t(8, rng),
          random_gaussian_t(5, rng), random_invertible_t(5, rng)]

    def built(*args, **kwargs):
        raise AssertionError("a constructor built an ExactMatrix")

    with monkeypatch.context() as m:
        m.setattr(ExactMatrix, "__init__", built)
        m.setattr(ExactMatrix, "_from_rows", built)
        n5c = complexify(catalog["n5"])
        split = apply_basis_change(direct_sum(catalog["n3"], abelian(2)), ts[4])
        results = [
            apply_basis_change(catalog["N3_82"], ts[0]),
            apply_basis_change(catalog["N3_82"], ts[1]),
            apply_basis_change(catalog["N1_84"], ts[2]),
            apply_basis_change(n5c, ts[3]),
            n5c,
            n5c.rename("n5 again"),
            abelian(3, "Qi"),
            direct_sum(catalog["n5"], catalog["filiform_4"]),
            direct_sum(catalog["N1_84"], n5c),
            strip_abelian_factor(split)[0],
            strip_abelian_factor(complexify(split))[0],
            strip_abelian_factor(direct_sum(catalog["N1_84"], abelian(1, "Qi")))[0],
        ]
    with_s = 0
    for alg in results:
        assert set(vars(alg)) == _FIELDS, alg.name
        stored = (alg.name, alg.dim, alg.field, alg.basis_names, alg.table, alg.real_rows or ())
        assert {type(x) for x in _leaves(stored)} == {str, int}, alg.name
        assert structure_table(alg) is alg.table and alg.table.field == alg.field, alg.name
        assert alg.brackets == alg.brackets, alg.name
        assert alg.brackets is not alg.brackets or not alg.table.rows, alg.name  # () is one object
        if alg.real_rows is not None:
            with_s += 1
            assert len(alg.real_rows) == alg.dim, alg.name
            assert all(den > 0 and kernel.zi_lowest(row, den) == (row, den)
                       for row, den in alg.real_rows), alg.name
            assert alg.real_structure == alg.real_structure, alg.name
            assert alg.real_structure is not alg.real_structure, alg.name
        liealg.real_structure_rows(alg)
        center(alg)
        assert set(alg._facts) <= {"commutator_ideal", "lower_central_series", "center"}, alg.name
    assert with_s == 9
    for key in catalog_keys():
        alg = get(key).algebra
        if alg.field == "Q":
            assert structure_table(complexify(alg)).rows is structure_table(alg).rows, key


def _field_typed(frozen: tuple, field: str) -> tuple:
    """`_freeze_brackets`' form with each constant a `Gaussian` over Q(i)."""
    if field == "Q":
        return frozen
    return tuple(
        (ij, tuple((k, c if type(c) is Gaussian else Gaussian(c, 0)) for k, c in cs))
        for ij, cs in frozen
    )


def _with_types(frozen: tuple) -> list:
    """The constants with their types, which == on scalars does not tell apart."""
    return [(ij, [(k, type(c), c) for k, c in cs]) for ij, cs in frozen]


def _scalar_map(pairs: dict) -> dict:
    """{(i, j): {k: (re, im)}} of Fractions as `Gaussian` constants, entered in reverse order."""
    def g(x):
        return Rational(x.numerator, x.denominator)

    return {ij: {k: Gaussian(g(re), g(im)) for k, (re, im) in reversed(cs.items())}
            for ij, cs in reversed(pairs.items())}


def test_brackets_read_as_freeze_brackets_makes_them_typed_by_field(rng):
    # On the same input, `brackets` equals what `_freeze_brackets` gives,
    # with the field's types: `Gaussian` over Q(i), `Rational` over Q.
    # The input: each catalog entry's constants re-entered, its moved
    # copies' constants from the Fraction oracle, its constants over Q(i)
    # for its complexification, and both summands' for catalog sums.
    def check(alg, given, where):
        want = _field_typed(_freeze_brackets(given, alg.dim, alg.field), alg.field)
        assert _with_types(alg.brackets) == _with_types(want), where

    seen = set()
    for key in catalog_keys():
        alg = get(key).algebra
        n, given = alg.dim, alg.bracket_map()
        check(alg, given, key)
        again = LieAlgebra.from_brackets(
            alg.name, n, _scalar_map(_pair_brackets(alg)), field=alg.field,
            basis_names=alg.basis_names, real_structure=alg.real_structure,
        )
        assert again == alg and hash(again) == hash(alg), key
        if alg.field == "Q":
            check(complexify(alg), given, (key, "complexified"))
        for t in (random_invertible_t(n, rng), random_gaussian_t(n, rng)):
            moved = apply_basis_change(alg, t)
            want, _ = oracle_basis_change(_pair_brackets(alg), n, _pair_rows(t))
            check(moved, _scalar_map(want), (key, t.field))
            seen.add(moved.field)
    assert seen == {"Q", "Qi"}
    for a, b in (("n3", "n5"), ("filiform_4", "L5_parity"), ("37D", "N1_84"), ("n3", "abelian_1")):
        first, second = get(a).algebra, get(b).algebra
        for x, y in ((first, second), (second, first)):
            if x.field != y.field:
                x, y = (complexify(z) if z.field == "Q" else z for z in (x, y))
            given = x.bracket_map()
            for (i, j), cs in y.bracket_map().items():
                given[i + x.dim, j + x.dim] = {k + x.dim: c for k, c in cs.items()}
            check(direct_sum(x, y), given, (x.name, y.name))


def test_tables_hold_each_equal_pair_and_entry_once(rng):
    # Within one table, equal (re, im) pairs are one tuple and so are equal
    # (k, pair) entries, however the table was built: catalog entries, their
    # moved copies, complexifications and catalog sums.  The values and their
    # order are pinned by the test above.
    algebras = []
    for key in catalog_keys():
        alg = get(key).algebra
        algebras += [alg, complexify(alg)] if alg.field == "Q" else [alg]
        algebras += [apply_basis_change(alg, t(alg.dim, rng)) for t in (random_invertible_t, random_gaussian_t)]
    for a, b in (("n3", "n5"), ("filiform_4", "L5_parity"), ("37D", "N1_84"), ("n3", "n3")):
        algebras.append(direct_sum(get(a).algebra, get(b).algebra))
    repeats = sum(held_once(structure_table(alg), alg.name) for alg in algebras)
    assert repeats > 200  # the sharing is met, not vacuous


def test_algebras_are_equal_and_hash_alike_exactly_when_their_constants_are():
    # [X1, X2] = X3/2 + X4, [X1, X3] = X4/2, entered in any dict order, with
    # ints, `Rational`s or real `Gaussian`s, or carried by the identity: one
    # algebra, one hash, and a table over 2, not over the product 4.
    half = Rational(1, 2)
    names = ("e1", "e2", "e3", "e4")
    entries = [
        {(0, 1): {2: half, 3: 1}, (0, 2): {3: half}},
        {(0, 2): {3: half}, (0, 1): {3: Rational(1), 2: half}},
        {(0, 1): {3: Gaussian(1, 0), 2: Gaussian(half, 0)}, (0, 2): {3: Gaussian(half)}},
    ]
    for field in ("Q", "Qi"):
        real = ExactMatrix.identity(4) if field == "Qi" else None
        algebras = [
            LieAlgebra.from_brackets("x", 4, b, field=field, basis_names=names, real_structure=real)
            for b in entries
        ]
        moved = apply_basis_change(algebras[0], ExactMatrix.identity(4), name="x")
        t = ExactMatrix([[1, 2, 0, 0], [0, Rational(1, 3), 0, 0], [0, 0, 2, 0], [1, 0, 0, 1]])
        there = apply_basis_change(algebras[0], t)
        back = apply_basis_change(there, t.inverse(), name="x")
        back = LieAlgebra(back.name, 4, back.field, names, back.table, back.real_rows)
        for alg in algebras + [moved, back]:
            assert alg == algebras[0] and hash(alg) == hash(algebras[0]), field
            assert alg.same_brackets(algebras[0]), field
            assert structure_table(alg).den == 2, field
        other = LieAlgebra.from_brackets(
            "x", 4, {(0, 1): {2: half, 3: 1}, (0, 2): {3: Rational(1, 3)}},
            field=field, basis_names=names, real_structure=real,
        )
        assert other != algebras[0] and not other.same_brackets(algebras[0]), field
    rational = LieAlgebra.from_brackets("x", 4, entries[0], basis_names=names)
    complexified = complexify(rational)
    entered = LieAlgebra.from_brackets(
        "x(C)", 4, entries[2], field="Qi", basis_names=names, real_structure=ExactMatrix.identity(4)
    )
    assert complexified == entered and hash(complexified) == hash(entered)
    assert complexified.same_brackets(rational) and complexified != rational
    # S moved there and back, over Q(i), and entered as given: one algebra.
    for t in (random_invertible_t(8, random.Random(2)), random_gaussian_t(8, random.Random(2))):
        alg = get("N1_84").algebra
        back = apply_basis_change(apply_basis_change(alg, t), t.inverse(), name=alg.name)
        entered = LieAlgebra.from_brackets(
            alg.name, 8, alg.bracket_map(), field="Qi", basis_names=back.basis_names,
            real_structure=alg.real_structure,
        )
        assert back == entered and hash(back) == hash(entered), t.field
        assert back.real_rows == alg.real_rows and back.real_rows is not alg.real_rows, t.field


def test_moved_table_is_the_structure_table_of_the_moved_algebra(rng):
    # Every catalog entry and a moved copy, each over Q and complexified,
    # moved by a rational T and, over Q(i), by a Gaussian one.
    seen = set()
    for key in catalog_keys():
        alg = get(key).algebra
        for base in (alg, apply_basis_change(alg, random_invertible_t(alg.dim, rng))):
            for L in (base, complexify(base)) if base.field == "Q" else (base,):
                ts = [random_invertible_t(L.dim, rng)]
                if L.field == "Qi":
                    ts.append(random_gaussian_t(L.dim, rng))
                for t in ts:
                    table, _, _ = _moved_table(L, *kernel.zi_rows(t.entries))
                    want = structure_table(apply_basis_change(L, t))
                    assert table == want, (key, L.field, t.field)
                    seen.add((table.field, t.field, table.den > 1))
    # Denominators over both fields, for rational and Gaussian T.
    assert {("Q", "Q", True), ("Qi", "Q", True), ("Qi", "Qi", True)} <= seen


def _pair(x):
    """A scalar as (re, im) Fractions."""
    if isinstance(x, Gaussian):
        return (Fraction(x.re.num, x.re.den), Fraction(x.im.num, x.im.den))
    return (Fraction(x.num, x.den), Fraction(0))


def _pair_brackets(alg):
    return {ij: {k: _pair(c) for k, c in cs.items()} for ij, cs in alg.bracket_map().items()}


def _pair_rows(m):
    return None if m is None else [[_pair(x) for x in row] for row in m.entries]


def test_apply_basis_change_matches_fraction_oracle(rng):
    # The catalog algebras up to dimension 6 and those over Q(i), and a few
    # moved once by a rational T (dense constants with denominators), each
    # with its complexification, are moved by a rational and by a Gaussian T
    # and compared with the Fraction oracle.
    algebras = [
        get(key).algebra
        for key in catalog_keys()
        if get(key).algebra.dim <= 6 or get(key).algebra.field == "Qi"
    ]
    for key in ("n5", "L5_parity", "g_sec6", "N1_84_real", "37D"):
        base = get(key).algebra
        algebras.append(apply_basis_change(base, random_invertible_t(base.dim, rng), key))
    for base in algebras:
        n = base.dim
        if not n:
            continue
        for alg in (base, complexify(base)) if base.field == "Q" else (base,):
            for t in (random_invertible_t(n, rng), random_gaussian_t(n, rng)):
                got = apply_basis_change(alg, t)
                s = alg.real_structure
                want, want_real = oracle_basis_change(
                    _pair_brackets(alg), n, _pair_rows(t), _pair_rows(s)
                )
                where = (base.name, alg.field, t.field)
                field = "Qi" if "Qi" in (alg.field, t.field) else "Q"
                assert got.field == field, where
                assert _pair_brackets(got) == want, where
                scalar = Gaussian if field == "Qi" else Rational
                assert {type(c) for _, cs in got.brackets for _, c in cs} <= {scalar}, where
                if field == "Q":
                    assert got.real_structure is None, where
                    continue
                real = got.real_structure
                assert _pair_rows(real) == want_real, where
                # Typed by the new algebra's field, whatever T and S hold.
                assert real.field == "Qi", where
                assert {type(x) for row in real.entries for x in row} == {Gaussian}, where


def _complex_bracket(brackets, n, u, v):
    """The bracket of (re, im) Fraction vectors from the real `oracle_bracket`."""
    (ur, ui), (vr, vi) = (map(list, zip(*w)) for w in (u, v))
    re = [a - b for a, b in zip(oracle_bracket(brackets, n, ur, vr), oracle_bracket(brackets, n, ui, vi))]
    im = [a + b for a, b in zip(oracle_bracket(brackets, n, ur, vi), oracle_bracket(brackets, n, ui, vr))]
    return list(zip(re, im))


def test_bracket_mixed_types_over_q(rng):
    # Over Q a vector may mix Rational and Gaussian entries.  Every entry
    # of the bracket is then a Gaussian, zeros included, and its value is
    # the bilinear bracket's.
    rationals = [Rational(0), Rational(1), Rational(-3, 2)]
    values = rationals + [
        Gaussian(0), Gaussian(1, -1), Gaussian(Rational(1, 2), Rational(2, 3)),
        Gaussian(Rational(-1, 3)),
    ]
    for key in ("n3", "n5", "L5_parity", "g_sec6", "N1_84_real"):
        base = get(key).algebra
        alg = apply_basis_change(base, random_invertible_t(base.dim, rng))
        n = alg.dim
        brackets = alg.bracket_map()
        fr = {ij: {k: Fraction(c.num, c.den) for k, c in cs.items()} for ij, cs in brackets.items()}
        for trial in range(6):
            u = [rng.choice(values) for _ in range(n)]
            u[rng.randrange(n)] = Gaussian(0)
            v = [rng.choice(values if trial % 2 else rationals) for _ in range(n)]
            got = alg.bracket(u, v)
            assert all(type(x) is Gaussian for x in got), key
            want = _complex_bracket(fr, n, [_pair(x) for x in u], [_pair(x) for x in v])
            assert [_pair(x) for x in got] == want, key


def test_verify_isomorphism_identity_and_mismatch():
    assert verify_isomorphism(n3(), n3(), ExactMatrix.identity(3))
    assert not verify_isomorphism(n3(), abelian(3), ExactMatrix.identity(3))
    with pytest.raises(DimensionMismatch):
        verify_isomorphism(n3(), abelian(4), ExactMatrix.identity(3))


def test_eg4_isomorphisms_from_catalog():
    for src, dst in (("n7_142", "37D"), ("n7_143", "37B")):
        entry = get(src)
        (target, t), = entry.transformations
        assert target == dst
        assert verify_isomorphism(entry.algebra, get(dst).algebra, t)


def test_37b_bracket_table_is_the_classical_one():
    alg = get("37B").algebra
    table = {ij: dict(c) for ij, c in alg.brackets}
    assert table == {
        (0, 1): {4: Rational(1)},
        (1, 2): {5: Rational(1)},
        (2, 3): {6: Rational(1)},
    }


def test_37d_bracket_table_is_the_transformation_image():
    alg = get("37D").algebra
    table = {ij: dict(c) for ij, c in alg.brackets}
    assert table == {
        (0, 2): {4: Rational(1)},
        (0, 3): {5: Rational(1)},
        (1, 2): {5: Rational(1)},
        (1, 3): {6: Rational(1)},
    }


def test_strip_abelian_factor_abelian():
    core, k = strip_abelian_factor(abelian(4))
    assert k == 4 and core.dim == 0


def test_strip_abelian_factor_n3_plus_r():
    alg = direct_sum(n3(), abelian(1))
    core, k = strip_abelian_factor(alg)
    assert k == 1
    assert core.dim == 3
    assert core.same_brackets(n3())


def test_strip_abelian_factor_core_already_clean():
    core, k = strip_abelian_factor(n3())
    assert k == 0 and core is n3() or core.same_brackets(n3())


def test_strip_core_has_no_abelian_factor_catalog_wide():
    for key in catalog_keys():
        alg = get(key).algebra
        if alg.field != "Q":
            continue
        core, k = strip_abelian_factor(alg)
        z = center(core)
        c1 = commutator_ideal(core)
        assert z.is_subspace_of(c1) or core.dim == 0
        again, k2 = strip_abelian_factor(core)
        assert k2 == 0


def test_strip_abelian_factor_transports_the_real_structure():
    # The core's real structure is the core's block of S transported to the
    # split basis, so conjugation stays a bracket automorphism of the core;
    # these cores' S is not symmetric, and its transpose would fail.
    for key in ("37B", "37D", "N1_84"):
        base = get(key).algebra
        moved = apply_basis_change(base, random_invertible_t(base.dim, random.Random(0)))
        core, k = strip_abelian_factor(direct_sum(moved, abelian(1, "Qi")))
        s = core.real_structure
        assert k == 1 and s is not None and s != s.transpose(), key
        assert validate(core).valid, key
        with pytest.raises(InvalidRealStructure):
            real_rows = liealg._real_rows(core.name, core.dim, s.transpose(), core.field)
            fields = (core.name, core.dim, core.field, core.basis_names, core.table)
            validate(LieAlgebra(*fields, real_rows))


def test_strip_explicit_isomorphism():
    for key in ("n3+C2", "n5+C1", "abelian_4", "n3+n3+C1"):
        alg = get(key).algebra
        core, k = strip_abelian_factor(alg)
        t = abelian_split_transformation(alg)
        rebuilt = direct_sum(core, abelian(k)) if k else core
        assert verify_isomorphism(alg, rebuilt, t)


def test_direct_sum_blocks():
    s = direct_sum(n3(), n3())
    table = {ij: dict(c) for ij, c in s.brackets}
    assert table == {(0, 1): {2: Rational(1)}, (3, 4): {5: Rational(1)}}
    assert s.dim == 6
    with pytest.raises(FieldMismatch):
        direct_sum(n3(), complexify(n3()))


def test_direct_sum_with_zero_algebra():
    z = abelian(0, name="zero")
    s = direct_sum(n3(), z)
    assert s.dim == 3 and s.same_brackets(n3())


def test_b1_equals_dim_minus_commutator_catalog_wide():
    for key in catalog_keys():
        alg = get(key).algebra
        b = betti_numbers(alg).betti
        assert b[1] == alg.dim - commutator_ideal(alg).dim


def test_conjugation_is_bracket_automorphism_on_n1_84():
    alg = get("N1_84").algebra
    assert validate(alg).valid
    e = lambda j: tuple(Rational(1) if t == j else Rational(0) for t in range(8))
    # conj(e1) = e3 in the stored basis ordering (X1 -> X1b)
    assert alg.conj_vector(e(0)) == tuple(
        Gaussian(1) if t == 2 else Gaussian(0) for t in range(8)
    )


def test_bracket_matches_oracle_on_moved_catalog(rng):
    # Dense structure constants and dense vectors with some zero entries.
    values = [Rational(0), Rational(1), Rational(-2), Rational(3, 2), Rational(-1, 3)]
    for key in catalog_keys():
        alg = get(key).algebra
        if alg.field != "Q" or not alg.dim:
            continue
        n = alg.dim
        moved = apply_basis_change(alg, random_invertible_t(n, rng))
        brackets = {
            ij: {t: Fraction(c.num, c.den) for t, c in coeffs.items()}
            for ij, coeffs in moved.bracket_map().items()
        }
        for _ in range(4):
            u = [values[rng.randrange(len(values))] for _ in range(n)]
            v = [values[rng.randrange(len(values))] for _ in range(n)]
            got = moved.bracket(u, v)
            want = oracle_bracket(
                brackets,
                n,
                [Fraction(x.num, x.den) for x in u],
                [Fraction(x.num, x.den) for x in v],
            )
            assert [Fraction(x.num, x.den) for x in got] == want, key
            assert all(type(x) is Rational for x in got), key


def test_bracket_over_qi_returns_gaussians_including_zeros(rng):
    for key in ("n3", "n5", "L5_parity", "N1_84_real", "g_sec6"):
        alg = get(key).algebra
        lc = complexify(alg)
        n = alg.dim
        e = ExactMatrix.identity(n).entries
        for i in range(n):
            for j in range(n):
                out = lc.bracket(e[i], e[j])
                assert all(type(x) is Gaussian for x in out), (key, i, j)
                assert out == alg.bracket(e[i], e[j])
        u = [Gaussian(rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(n)]
        v = [Gaussian(0)] * (n - 1) + [Gaussian(1, 1)]
        assert all(type(x) is Gaussian for x in lc.bracket(u, v)), key


def _fractions(x):
    """A scalar as a Fraction over Q, or as an (re, im) pair of Fractions."""
    if type(x) is Gaussian:
        return (Fraction(x.re.num, x.re.den), Fraction(x.im.num, x.im.den))
    return Fraction(x.num, x.den)


def _oracle_null_space(rows, ncols, over_qi):
    """The reduced basis of {v : row . v = 0} by the Fraction oracles.

    A free column f of the reduced rows gives the vector with 1 at f and
    minus the column's entries at the pivots; their reduced form is the
    canonical basis.  Over Q(i) entries are (re, im) pairs.
    """
    rref = frac_rref_qi if over_qi else frac_rref
    zero, one = Fraction(0), Fraction(1)
    if over_qi:
        zero, one = (zero, zero), (one, zero)
    red, pivots = rref(rows, ncols)
    vecs = []
    for f in (j for j in range(ncols) if j not in pivots):
        vec = [zero] * ncols
        vec[f] = one
        for row, p in zip(red, pivots):
            vec[p] = (-row[f][0], -row[f][1]) if over_qi else -row[f]
        vecs.append(vec)
    return rref(vecs, ncols)[0] if vecs else []


SOLVABLE = {
    "r2": (2, {(0, 1): {1: 1}}),
    "r3_diag": (3, {(0, 1): {1: 1}, (0, 2): {2: 1}}),
    "r3_jordan": (3, {(0, 1): {1: 1, 2: 1}, (0, 2): {2: 1}}),
}


def test_center_of_complexification_equals_stacked_ad_kernel(rng):
    # The null space of the n^2 x n stack of ad(.)X_i matrices, built from
    # n^2 brackets of basis vectors and solved by the Fraction oracles, on
    # every catalog algebra, two moved copies of each and a copy moved by
    # a Gaussian T, abelian algebras of dims 0-3, solvable ones, and over
    # Q(i) on the complexifications of the rational ones.  `center` keeps
    # only the equations at C^1's pivot columns; the whole stack must give
    # the same rows.
    assert center(abelian(0)).rows == []
    base = [abelian(n) for n in range(1, 4)]
    base += [LieAlgebra.from_brackets(name, n, b) for name, (n, b) in SOLVABLE.items()]
    base += [get(key).algebra for key in catalog_keys() if get(key).algebra.dim]
    proper = 0
    for alg in base:
        n = alg.dim
        algebras = [alg] + [
            apply_basis_change(alg, random_invertible_t(n, rng)) for _ in range(2)
        ]
        algebras += [complexify(a) for a in algebras if a.field == "Q"]
        algebras.append(apply_basis_change(alg, random_gaussian_t(n, rng)))
        e = ExactMatrix.identity(n).entries
        for lc in algebras:
            over_qi = lc.field == "Qi"
            rows = []
            for i in range(n):
                cols = [lc.bracket(e[j], e[i]) for j in range(n)]
                rows.extend([_fractions(cols[j][k]) for j in range(n)] for k in range(n))
            got = center(lc)
            want = _oracle_null_space(rows, n, over_qi)
            assert [list(map(_fractions, v)) for v in got.vectors()] == want, lc.name
            assert got.basis.field == ("Qi" if over_qi and got.dim else "Q"), lc.name
            kind = Gaussian if over_qi else Rational
            assert all(type(x) is kind for v in got.vectors() for x in v), lc.name
            proper += 0 < got.dim < n
    assert proper >= 150


def _is_rational_zi_row(row) -> bool:
    """Whether ``row`` is a Z[i] row over Q: ``{int: (int, 0)}`` with no zero entry."""
    return all(
        type(j) is int and type(e) is tuple and len(e) == 2
        and type(e[0]) is int and e[0] and e[1] == 0
        for j, e in row.items()
    )


def test_rational_algebras_hold_one_row_format(rng):
    # Over Q, the structure table, the center, C^1, every term of the lower
    # central series and a span of scalar vectors hold Z[i] rows with zero
    # imaginary parts, on every catalog algebra over Q and a moved copy of
    # each; and the kernel ranks, spans and solves such rows over Q as the
    # Fraction oracles do.
    for key in catalog_keys():
        alg = get(key).algebra
        n = alg.dim
        if alg.field != "Q" or not n:
            continue
        for lc in (alg, apply_basis_change(alg, random_invertible_t(n, rng))):
            table_rows = structure_table(lc).rows
            pairs = [pair for row in table_rows.values() for _, pair in row]
            assert all(type(x) is int and x and y == 0 for x, y in pairs), lc.name
            spanned = Subspace.from_spanning([lc.bracket_basis(i, j) for i, j in table_rows], n)
            spaces = [center(lc), commutator_ideal(lc), spanned]
            spaces += lower_central_series(lc).terms
            for space in spaces:
                assert all(_is_rational_zi_row(row) for row, _ in space.rows), lc.name
            assert spanned == commutator_ideal(lc), lc.name

            rows = [dict(row) for row in table_rows.values()]
            dense = [[Fraction(row.get(j, (0, 0))[0]) for j in range(n)] for row in rows]
            rank = kernel.rank(rows, n, "Q")
            assert rank == frac_rank(dense), lc.name
            for got, want in (
                (kernel.span(rows, n, "Q"), frac_rref(dense, n)[0][:rank]),
                (kernel.null_space(rows, n, "Q"), _oracle_null_space(dense, n, False)),
            ):
                assert all(_is_rational_zi_row(row) for row, _ in got), lc.name
                assert [
                    [_fractions(x) for x in kernel.decode(row, den, n, "Q")] for row, den in got
                ] == want, lc.name


def test_series_and_center_computed_once_per_instance():
    alg = get("n5").algebra
    moved = apply_basis_change(alg, ExactMatrix.identity(alg.dim))
    assert lower_central_series(moved) is lower_central_series(moved)
    assert center(moved) is center(moved)
    # A new instance computes its own; the memo takes no part in equality.
    again = moved.rename("n5 again")
    assert lower_central_series(again) is not lower_central_series(moved)
    assert lower_central_series(again) == lower_central_series(moved)
    assert again == LieAlgebra("n5 again", moved.dim, moved.field, moved.basis_names, moved.table)


def test_series_starts_from_one_whole_space_per_dimension(rng):
    # C^0 is one `Subspace.full(n)` per n, shared by the algebras of that
    # dimension, and `check` on the whole catalog leaves it the full space.
    for key in catalog_keys():
        alg = get(key).algebra
        if alg.field == "Q":
            check(alg)
    firsts = {}
    for key in catalog_keys():
        alg = get(key).algebra
        moved = apply_basis_change(alg, random_invertible_t(alg.dim, rng))
        for L in (alg, moved):
            c0 = lower_central_series(L).terms[0]
            assert firsts.setdefault(alg.dim, c0) is c0, key
            assert c0 == Subspace.full(alg.dim) and c0.rows == Subspace.full(alg.dim).rows, key
    assert len(firsts) == len({get(key).algebra.dim for key in catalog_keys()})


def _typed(space):
    return space.basis.field, [[type(x) for x in v] for v in space.vectors()]


def _series_by_bracket(alg):
    """C^{k+1} as the span of L.bracket(X_i, w), w running over C^k's basis."""
    n = alg.dim
    e = [[Rational(int(i == j)) for j in range(n)] for i in range(n)]
    terms = [Subspace.full(n)]
    while terms[-1].dim:
        vecs = [alg.bracket(x, w) for w in terms[-1].vectors() for x in e]
        terms.append(Subspace.from_spanning([v for v in vecs if any(v)], ambient_dim=n))
    return terms


def _gaussian_constant_algebra():
    g = Gaussian(Rational(1, 2), Rational(1, 3))
    return LieAlgebra.from_brackets(
        "qg", 5, {(0, 1): {2: g}, (0, 2): {3: 1}, (1, 2): {4: Rational(3, 2)}}, field="Qi"
    )


def _derived_types(alg, rng):
    """The types of the scalars derived from ``alg`` for rational input.

    [X_i, X_j], the bracket and the conjugate of rational vectors, C^1's
    basis and, over Q(i), the real structure moved by a rational T.
    """
    n = alg.dim
    values = [Rational(0), Rational(1), Rational(-2), Rational(3, 2)]
    vectors = [[rng.choice(values) for _ in range(n)] for _ in range(6)]
    derived = [alg.bracket_basis(i, j) for i in range(n) for j in range(n)]
    derived += [alg.bracket(u, v) for u, v in zip(vectors, vectors[1:])]
    derived += [alg.conj_vector(u) for u in vectors]
    derived += list(commutator_ideal(alg).vectors())
    if alg.field == "Qi":
        derived += apply_basis_change(alg, random_invertible_t(n, rng)).real_structure.entries
    return {type(x) for vec in derived for x in vec}


def test_derived_scalars_are_typed_by_field(rng):
    # One rule: Gaussian over Q(i), Rational over Q for rational input.
    for key in catalog_keys():
        alg = get(key).algebra
        n = alg.dim
        complex_copies = [alg] if alg.field == "Qi" else [complexify(alg)]
        t = random_gaussian_t(n, rng)
        if t.field == "Qi":  # at n = 1 it is the identity
            complex_copies.append(apply_basis_change(alg, t))
        if alg.field == "Q":
            moved = apply_basis_change(alg, random_invertible_t(n, rng))
            assert _derived_types(alg, rng) == {Rational}, key
            assert _derived_types(moved, rng) == {Rational}, key
        for lc in complex_copies:
            assert lc.field == "Qi", (key, lc.name)
            assert _derived_types(lc, rng) == {Gaussian}, (key, lc.name)


def test_series_and_commutator_keep_values_and_types(rng):
    algebras = [_gaussian_constant_algebra()]
    for key in catalog_keys():
        alg = get(key).algebra
        algebras.append(alg)
        if alg.dim:
            algebras.append(apply_basis_change(alg, random_invertible_t(alg.dim, rng)))
            if alg.field == "Q" and alg.dim <= 6:
                algebras.append(complexify(algebras[-1]))
                algebras.append(apply_basis_change(alg, random_gaussian_t(alg.dim, rng)))
    qg = algebras[0]
    algebras.append(apply_basis_change(qg, random_invertible_t(qg.dim, rng)))
    for alg in algebras:
        want = _series_by_bracket(alg)
        got = lower_central_series(alg).terms
        assert got == tuple(want), alg.name
        assert [_typed(t) for t in got] == [_typed(t) for t in want], alg.name
        c1 = Subspace.from_spanning(
            [alg.bracket_basis(i, j) for (i, j), _ in alg.brackets], ambient_dim=alg.dim
        )
        assert commutator_ideal(alg) == c1, alg.name
        assert _typed(commutator_ideal(alg)) == _typed(c1), alg.name
    # Over Q(i) the nonzero proper terms C^1 and C^2 are spans over Q(i).
    assert [t.basis.field for t in lower_central_series(qg).terms] == ["Q", "Qi", "Qi", "Q"]


def test_is_central_agrees_with_the_fraction_bracket(rng):
    # x is central exactly when a reference brackets it to zero with every
    # unit vector.  Over Q the reference is the Fraction oracle, which
    # tests x = a + ib as its real and imaginary parts.  Over Q(i) (37B,
    # 37D, N1_84, the complexifications of the rational entries, and a
    # Gaussian-moved copy of each) it is `LieAlgebra.bracket`, which runs
    # `_zi_bracket` on the table, not `_ad`.  The vectors: unit vectors, the
    # center's basis, each center vector plus a unit vector (times 1 + i
    # over Q(i)), and the generators of the known gradings.
    tested = {"Q": 0, "Qi": 0}
    central = {"Q": 0, "Qi": 0}
    for key in catalog_keys():
        entry = get(key)
        base = entry.algebra
        n = base.dim
        if not n:
            continue
        if base.field == "Q":
            graded = complexify(base)
            algs = [base, apply_basis_change(base, random_invertible_t(n, rng)), graded]
        else:
            graded = base
            algs = [base]
        algs.append(apply_basis_change(graded, random_gaussian_t(n, rng)))
        for alg in algs:
            rows = structure_table(alg).rows
            units = ExactMatrix.identity(n).entries
            z = center(alg).vectors()
            c = Rational(1) if alg.field == "Q" else Gaussian(1, 1)
            vectors = list(units) + list(z)
            vectors += [tuple(a + c * b for a, b in zip(v, u)) for v in z for u in units[:3]]
            if alg is base or alg is graded:
                gradings = entry.known_bigradings
                vectors += [v for g in gradings for cp in g.components for v in cp.generators]
            if alg.field == "Q":
                brackets = fraction_brackets(alg)
                e = [[Fraction(int(s == t)) for t in range(n)] for s in range(n)]
            for v in vectors:
                if alg.field == "Q":
                    pairs = [
                        _fractions(x) if type(x) is Gaussian else (_fractions(x), Fraction(0))
                        for x in v
                    ]
                    want = not any(
                        any(oracle_bracket(brackets, n, e[s], list(part)))
                        for part in zip(*pairs)
                        for s in range(n)
                    )
                else:
                    want = not any(x for u in units for x in alg.bracket(u, v))
                (row,), _, _ = kernel.zi_rows([v])
                assert _is_central(rows, row, n) == want, (alg.name, v)
                tested[alg.field] += 1
                central[alg.field] += want
    for field in ("Q", "Qi"):
        assert central[field] >= 100 and tested[field] - central[field] >= 100, field


def test_pair_brackets_equal_the_brackets_they_replace(monkeypatch, rng):
    # Rows closed under entrywise conjugation up to sign (three complex
    # rows, the conjugates of two and minus the conjugate of the third, a
    # real row and a purely imaginary one), bracketed in every order: on
    # real tables (rational algebras and their complexifications) conjugate
    # pairs are read off earlier brackets, and on complex ones (moved by a
    # Gaussian T) every pair is formed; each must equal the bracket formed
    # directly.  Every row has a mirror, so in this order 19 of the 56
    # ordered pairs are formed on real tables; with mirrors only for exact
    # conjugates, 43 would be.
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _zi_bracket(*args)

    monkeypatch.setattr(liealg, "_zi_bracket", counted)
    for key in ("n5", "N3_82", "g_sec6", "L5_parity"):
        base = get(key).algebra
        n = base.dim
        moved = apply_basis_change(base, random_gaussian_t(n, rng))
        for alg, real in ((base, True), (complexify(base), True), (moved, False)):
            rows = [
                {j: e for j in range(n) if (e := (rng.randint(-2, 2), rng.randint(-2, 2))) != (0, 0)}
                for _ in range(3)
            ]
            rows += [kernel.zi_conj(rows[0]), kernel.zi_conj(rows[1])]
            rows += [{j: (-x, y) for j, (x, y) in rows[2].items()}]
            rows += [{0: (1, 0), n - 1: (2, 0)}, {1: (0, 3), n - 2: (0, -1)}]
            dense = [[row.get(j, (0, 0)) for j in range(n)] for row in rows]
            table = structure_table(alg)
            assert real == (not any(y for row in table.rows.values() for _, (_, y) in row))
            calls[0] = 0
            bracket = liealg._pair_brackets(table, rows, n)
            pairs = list(permutations(range(len(rows)), 2))
            for s, t in pairs:
                assert bracket(s, t) == _zi_bracket(table.rows, dense[s], dense[t], n), (alg.name, s, t)
            assert calls[0] == (19 if real else len(pairs)), alg.name
