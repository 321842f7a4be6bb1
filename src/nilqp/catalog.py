"""Built-in library of exactly encoded nilpotent Lie algebras.

Contains the abelian algebras through dimension 8, the odd Heisenberg
algebras, low filiform algebras, the two seven-dimensional algebras n7_142
and n7_143 with their complex presentations 37B and 37D from the classical
seven-dimensional classification, the indecomposable two-step algebras of
dimension 8 with first Betti number 4 or 6 (N1_84, N1_82..N5_82), an
eight-dimensional three-step algebra with a five-component bigrading
(g_sec6), a five-dimensional parity counterexample, and the direct sums
needed for the classification tables.

`catalog_keys()` reads the keys off a table of builders and builds
nothing.  `get(key)` builds that entry on its first call, validating every
algebra it enters by brackets, and returns the same object on every later
call; an entry made from others (37D and 37B, the direct sums) gets them
with `get`, so nothing else is built.

Every entry validates; every stored bigrading verifies strictly; every
stored transformation is an isomorphism onto its target entry (the catalog
self-test asserts all of this).

Note on 37B/37D: the classical tables and the complexification maps are
stated in the literature with inconsistent generator labels.  Here 37B keeps
the classical bracket table (its map is corrected by swapping the e6/e7
definitions), while 37D is stored with the bracket table actually produced
by the map (an isomorphic relabeling of the classical table); both stored
maps are exact isomorphisms and both stored bigradings verify strictly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import UnknownKey
from .exact import ExactMatrix
from .grading import Bigrading
from .liealg import LieAlgebra, abelian, apply_basis_change, direct_sum
from .scalars import Gaussian, Rational, conj

__all__ = ["CatalogEntry", "get", "catalog_keys", "export_entry"]


class CatalogEntry(NamedTuple):
    key: str
    algebra: LieAlgebra
    known_bigradings: tuple[Bigrading, ...]
    transformations: tuple[tuple[str, ExactMatrix], ...]
    provenance: str


def _i(c: int = 1) -> Gaussian:
    return Gaussian(0, c)


def _unit(n: int, idx):
    """Coordinate vector with given entries, e.g. _unit(7, {0: 1, 2: -i})."""
    entries = idx if isinstance(idx, dict) else {idx: 1}
    return tuple(entries.get(k, 0) for k in range(n))


def _entry(key, algebra, gradings=(), transformations=(), provenance="") -> CatalogEntry:
    return CatalogEntry(
        key, algebra.rename(key), tuple(gradings), tuple(transformations), provenance
    )


def _abelian(key: str, n: int) -> CatalogEntry:
    return _entry(
        key,
        abelian(n),
        [_diagonal_grading(n)],
        provenance="abelian Lie algebra R^n; torus times Euclidean factor",
    )


def _heisenberg(key: str, k: int) -> CatalogEntry:
    """Basis (X_1..X_k, Y_1..Y_k, Z) with [X_j, Y_j] = Z, graded by X_j ± i Y_j."""
    n = 2 * k + 1
    brackets = {(j, k + j): {n - 1: 1} for j in range(k)}
    names = tuple(f"X{j + 1}" for j in range(k)) + tuple(
        f"Y{j + 1}" for j in range(k)
    ) + ("Z",)
    u = [_unit(n, {j: 1, k + j: _i()}) for j in range(k)]
    ubar = [_unit(n, {j: 1, k + j: _i(-1)}) for j in range(k)]
    return _entry(
        key,
        LieAlgebra.from_brackets(key, n, brackets, basis_names=names),
        [Bigrading.build([(-1, 0, u), (0, -1, ubar), (-1, -1, [_unit(n, n - 1)])])],
        provenance=f"Heisenberg algebra of dimension {n}",
    )


def _filiform(key: str, n: int) -> CatalogEntry:
    brackets = {(0, j): {j + 1: 1} for j in range(1, n - 1)}
    return _entry(
        key,
        LieAlgebra.from_brackets(key, n, brackets),
        provenance="filiform algebra [X1, Xi] = X(i+1); maximal class",
    )


def _diagonal_grading(n: int) -> Bigrading:
    """The grading of an abelian algebra of dimension n with every unit vector at (-1, -1)."""
    return Bigrading.build([(-1, -1, [_unit(n, j) for j in range(n)])])


def _sum_grading(parts) -> Bigrading:
    """Combine restricted gradings of direct summands: each summand's rows shifted by its offset."""
    comps: dict = {}
    total = sum(p for p, _ in parts)
    offset = 0
    for dim, grading in parts:
        for c in grading.components:
            fields, rows = comps.setdefault((c.p, c.q), (set(), []))
            fields.add(c.field)
            rows += [({offset + j: e for j, e in row.items()}, den) for row, den in c.rows]
        offset += dim
    return Bigrading._from_rows(
        (p, q, total, "Qi" if "Qi" in fields else "Q", rows) for (p, q), (fields, rows) in comps.items()
    )


def _direct_sum(key: str, *parts: str) -> CatalogEntry:
    """The sum of the entries ``parts``, graded by their first stored gradings side by side."""
    entries = [get(part) for part in parts]
    algebra = entries[0].algebra
    for entry in entries[1:]:
        algebra = direct_sum(algebra, entry.algebra)
    return _entry(
        key,
        algebra,
        [_sum_grading([(e.algebra.dim, e.known_bigradings[0]) for e in entries])],
        provenance="direct sum entry for the classification tables",
    )


def _l5_parity(key: str) -> CatalogEntry:
    return _entry(
        key,
        LieAlgebra.from_brackets(key, 5, {(0, 1): {3: 1}, (0, 2): {4: 1}}),
        provenance="two-step algebra with odd core b1 (parity obstruction)",
    )


def _n7_142(key: str) -> CatalogEntry:
    # e1 = -X7 + i(X1 - X3), e2 = X3 - i X5, e3 = conj(e1), e4 = conj(e2),
    # e5 = -2i X6, e6 = 2i X2, e7 = 2i X4.
    t_37d = ExactMatrix(
        [
            _unit(7, {0: _i(), 2: _i(-1), 6: -1}),
            _unit(7, {2: 1, 4: _i(-1)}),
            _unit(7, {0: _i(-1), 2: _i(), 6: -1}),
            _unit(7, {2: 1, 4: _i()}),
            _unit(7, {5: _i(-2)}),
            _unit(7, {1: _i(2)}),
            _unit(7, {3: _i(2)}),
        ]
    )
    return _entry(
        key,
        LieAlgebra.from_brackets(
            key,
            7,
            {(0, 2): {1: 1}, (0, 4): {3: 1}, (0, 6): {5: 1}, (2, 4): {3: 1}, (4, 6): {1: 1}},
        ),
        transformations=[("37D", t_37d)],
        provenance="seven-dimensional classification, entry 1.2(iv)=142",
    )


def _n7_143(key: str) -> CatalogEntry:
    # e1 = X3 + i X7, e2 = X1 - i X5, e3 = conj(e2), e4 = conj(e1),
    # e5 = -2(X2 + i X6), e6 = 2i X4, e7 = 2(X2 - i X6)
    # (the e6/e7 definitions are swapped relative to the usual citation so that
    # the map lands exactly on the classical bracket table).
    t_37b = ExactMatrix(
        [
            _unit(7, {2: 1, 6: _i()}),
            _unit(7, {0: 1, 4: _i(-1)}),
            _unit(7, {0: 1, 4: _i()}),
            _unit(7, {2: 1, 6: _i(-1)}),
            _unit(7, {1: -2, 5: _i(-2)}),
            _unit(7, {3: _i(2)}),
            _unit(7, {1: 2, 5: _i(-2)}),
        ]
    )
    return _entry(
        key,
        LieAlgebra.from_brackets(
            key,
            7,
            {(0, 2): {1: 1}, (0, 4): {3: 1}, (0, 6): {5: 1}, (2, 4): {5: 1}, (4, 6): {1: 1}},
        ),
        transformations=[("37B", t_37b)],
        provenance="seven-dimensional classification, entry 1.2(iv)=143",
    )


def _complex_form(key: str, source: str, holomorphic: tuple[int, int], label: str) -> CatalogEntry:
    """The entry ``source`` moved by its stored map to ``key``.

    Graded with e_j for j in ``holomorphic`` at (-1, 0), the rest of e1..e4
    at (0, -1), and e5..e7 at (-1, -1).
    """
    entry = get(source)
    rest = [j for j in range(4) if j not in holomorphic]
    grading = Bigrading.build(
        [
            (-1, 0, [_unit(7, j) for j in holomorphic]),
            (0, -1, [_unit(7, j) for j in rest]),
            (-1, -1, [_unit(7, 4), _unit(7, 5), _unit(7, 6)]),
        ]
    )
    return _entry(
        key,
        apply_basis_change(entry.algebra, dict(entry.transformations)[key], name=key),
        [grading],
        provenance=f"complex presentation of {source} (classical label {label})",
    )


def _n1_84(key: str) -> CatalogEntry:
    """Complex presentation: [X1, X1b] = Z1, [X1, X2b] = Z2, [X2, X1b] = Z3,
    [X2, X2b] = Z4, with the signed-permutation real structure forced by
    conj being a bracket automorphism (conj Z1 = -Z1, conj Z2 = -Z3, ...)."""
    s = ExactMatrix(
        [
            _unit(8, 2),
            _unit(8, 3),
            _unit(8, 0),
            _unit(8, 1),
            _unit(8, {4: -1}),
            _unit(8, {6: -1}),
            _unit(8, {5: -1}),
            _unit(8, {7: -1}),
        ]
    ).transpose()
    algebra = LieAlgebra.from_brackets(
        key,
        8,
        {(0, 2): {4: 1}, (0, 3): {5: 1}, (1, 2): {6: 1}, (1, 3): {7: 1}},
        field="Qi",
        basis_names=("X1", "X2", "X1b", "X2b", "Z1", "Z2", "Z3", "Z4"),
        real_structure=s,
    )
    grading = Bigrading.build(
        [
            (-1, 0, [_unit(8, 0), _unit(8, 1)]),
            (0, -1, [_unit(8, 2), _unit(8, 3)]),
            (-1, -1, [_unit(8, j) for j in range(4, 8)]),
        ]
    )
    return _entry(
        key,
        algebra,
        [grading],
        provenance="indecomposable dim-8 two-step, b1 = 4 (complex form)",
    )


def _n1_84_real(key: str) -> CatalogEntry:
    """Rational form on U_j = X_j + conj(X_j), V_j = i(X_j - conj(X_j)),
    P1 = i Z1, P2 = i(Z2 + Z3), P3 = Z2 - Z3, P4 = i Z4."""
    algebra = LieAlgebra.from_brackets(
        key,
        8,
        {
            (0, 1): {4: -2},
            (0, 2): {6: 1},
            (0, 3): {5: -1},
            (1, 2): {5: 1},
            (1, 3): {6: 1},
            (2, 3): {7: -2},
        },
        basis_names=("U1", "V1", "U2", "V2", "P1", "P2", "P3", "P4"),
    )
    # Rows: N1_84's complex basis written in the rational-form basis.
    t_84 = ExactMatrix(
        [
            _unit(8, {0: Rational(1, 2), 1: Gaussian(0, Rational(-1, 2))}),
            _unit(8, {2: Rational(1, 2), 3: Gaussian(0, Rational(-1, 2))}),
            _unit(8, {0: Rational(1, 2), 1: Gaussian(0, Rational(1, 2))}),
            _unit(8, {2: Rational(1, 2), 3: Gaussian(0, Rational(1, 2))}),
            _unit(8, {4: _i(-1)}),
            _unit(8, {5: Gaussian(0, Rational(-1, 2)), 6: Rational(1, 2)}),
            _unit(8, {5: Gaussian(0, Rational(-1, 2)), 6: Rational(-1, 2)}),
            _unit(8, {7: _i(-1)}),
        ]
    )
    return _entry(
        key, algebra, transformations=[("N1_84", t_84)], provenance="rational form of N1_84"
    )


_N82_BRACKETS = {
    "N1_82": {(0, 1): {6: 1}, (2, 3): {7: 1}, (4, 5): {6: 1, 7: 1}},
    "N2_82": {(0, 1): {6: 1}, (3, 4): {6: 1}, (0, 2): {7: 1}, (3, 5): {7: 1}},
    "N3_82": {(0, 1): {6: 1}, (3, 4): {6: 1}, (2, 3): {7: 1}, (4, 5): {7: 1}},
    "N4_82": {(0, 1): {6: 1}, (2, 3): {6: 1}, (4, 5): {6: 1}, (3, 4): {7: 1}},
    "N5_82": {
        (0, 1): {6: 1},
        (2, 3): {6: 1},
        (4, 5): {6: 1},
        (3, 4): {7: 1},
        (1, 2): {7: 1},
    },
}

_N82_GRADING_GENERATORS = {
    "N1_82": [{0: 1, 1: _i()}, {2: 1, 3: _i()}, {4: 1, 5: _i()}],
    "N2_82": [{0: 1, 3: _i()}, {2: 1, 5: _i()}, {4: -1, 1: _i()}],
    "N3_82": [{0: 1, 1: _i()}, {2: 1, 5: _i()}, {4: 1, 3: _i()}],
    "N4_82": [{0: 1, 1: _i()}, {2: 1, 5: _i()}, {4: 1, 3: _i()}],
    "N5_82": [
        {0: 1, 5: _i()},
        {2: 1, 3: _i(), 5: _i()},
        {4: 1, 1: _i(), 3: _i(), 5: _i()},
    ],
}


def _n82(key: str) -> CatalogEntry:
    a_gens = [_unit(8, spec) for spec in _N82_GRADING_GENERATORS[key]]
    abar = [tuple(conj(x) for x in v) for v in a_gens]
    b_gens = [_unit(8, {6: _i(-2)}), _unit(8, {7: _i(-2)})]
    return _entry(
        key,
        LieAlgebra.from_brackets(key, 8, _N82_BRACKETS[key]),
        [Bigrading.build([(-1, 0, a_gens), (0, -1, abar), (-1, -1, b_gens)])],
        provenance="indecomposable dim-8 two-step, b1 = 6",
    )


def _g_sec6(key: str) -> CatalogEntry:
    algebra = LieAlgebra.from_brackets(
        key,
        8,
        {
            (0, 2): {4: 1},
            (1, 3): {4: 1},
            (1, 2): {5: 1},
            (0, 3): {5: 1},
            (0, 4): {6: 1},
            (1, 5): {6: 1},
            (2, 4): {7: 1},
            (3, 5): {7: 1},
        },
        basis_names=("X1", "X2", "Y1", "Y2", "Z1", "Z2", "A", "B"),
    )
    grading = Bigrading.build(
        [
            (-1, 0, [_unit(8, {0: 1, 2: _i()}), _unit(8, {1: 1, 3: _i()})]),
            (0, -1, [_unit(8, {0: 1, 2: _i(-1)}), _unit(8, {1: 1, 3: _i(-1)})]),
            (-1, -1, [_unit(8, {4: _i(-2)}), _unit(8, {5: _i(-2)})]),
            (-2, -1, [_unit(8, {6: _i(-2), 7: 2})]),
            (-1, -2, [_unit(8, {6: _i(2), 7: 2})]),
        ]
    )
    return _entry(
        key,
        algebra,
        [grading],
        provenance="three-step dim-8 algebra with a five-component bigrading",
    )


# Each key's builder, and the arguments it takes after the key.
_BUILDERS = {
    **{f"abelian_{n}": (_abelian, n) for n in range(1, 9)},
    **{f"n{2 * k + 1}": (_heisenberg, k) for k in (1, 2, 3)},
    **{f"filiform_{n}": (_filiform, n) for n in (3, 4, 5)},
    "L5_parity": (_l5_parity,),
    "n7_142": (_n7_142,),
    "n7_143": (_n7_143,),
    "37D": (_complex_form, "n7_142", (0, 1), "3,7D"),
    "37B": (_complex_form, "n7_143", (0, 2), "3,7B"),
    "N1_84": (_n1_84,),
    "N1_84_real": (_n1_84_real,),
    **{key: (_n82,) for key in _N82_BRACKETS},
    "g_sec6": (_g_sec6,),
    **{f"n3+C{n}": (_direct_sum, "n3", f"abelian_{n}") for n in (1, 2, 3, 4)},
    **{f"n5+C{n}": (_direct_sum, "n5", f"abelian_{n}") for n in (1, 2)},
    "n3+n3": (_direct_sum, "n3", "n3"),
    "n3+n3+C1": (_direct_sum, "n3", "n3", "abelian_1"),
}


@lru_cache(maxsize=None)
def _built(key: str) -> CatalogEntry:
    build, *args = _BUILDERS[key]
    return build(key, *args)


def catalog_keys() -> tuple[str, ...]:
    """Every key, sorted; no entry is built."""
    return tuple(sorted(_BUILDERS))


def get(key: str) -> CatalogEntry:
    """The entry under ``key``, built and validated on the first call; the same object after."""
    if key not in _BUILDERS:
        raise UnknownKey(key)
    return _built(key)


def export_entry(key: str, directory) -> list[str]:
    """Write <key>.algebra.json plus bigrading/transformation sidecars."""
    import os

    from .jsonio import bigrading_to_json, dump_json, lie_algebra_to_json, matrix_to_json

    entry = get(key)
    os.makedirs(directory, exist_ok=True)
    written = []

    def emit(name, payload):
        path = os.path.join(directory, name)
        dump_json(path, payload)
        written.append(path)

    emit(f"{key}.algebra.json", lie_algebra_to_json(entry.algebra))
    for idx, g in enumerate(entry.known_bigradings):
        emit(f"{key}.bigrading.{idx}.json", bigrading_to_json(g))
    for target, t in entry.transformations:
        emit(
            f"{key}.transform.{target}.json",
            {"source": key, "target": target, "matrix": matrix_to_json(t)},
        )
    return written
