"""Built-in library of exactly encoded nilpotent Lie algebras.

Contains the abelian algebras through dimension 8, the odd Heisenberg
algebras, low filiform algebras, the two seven-dimensional algebras n7_142
and n7_143 with their complex presentations 37B and 37D from the classical
seven-dimensional classification, the indecomposable two-step algebras of
dimension 8 with first Betti number 4 or 6 (N1_84, N1_82..N5_82), an
eight-dimensional three-step algebra with a five-component bigrading
(g_sec6), a five-dimensional parity counterexample, and the direct sums
needed for the classification tables.

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
from .scalars import Gaussian, Q1, Rational, conj

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
    v = [Rational(0)] * n
    if isinstance(idx, dict):
        for k, c in idx.items():
            v[k] = c if not isinstance(c, int) else Rational(c)
    else:
        v[idx] = Q1
    return tuple(v)


def _heisenberg(k: int) -> LieAlgebra:
    """Basis (X_1..X_k, Y_1..Y_k, Z) with [X_j, Y_j] = Z."""
    n = 2 * k + 1
    brackets = {(j, k + j): {n - 1: 1} for j in range(k)}
    names = tuple(f"X{j + 1}" for j in range(k)) + tuple(
        f"Y{j + 1}" for j in range(k)
    ) + ("Z",)
    return LieAlgebra.from_brackets(f"n{n}", n, brackets, basis_names=names)


def _heisenberg_grading(k: int) -> Bigrading:
    n = 2 * k + 1
    u = [_unit(n, {j: 1, k + j: _i()}) for j in range(k)]
    ubar = [_unit(n, {j: 1, k + j: _i(-1)}) for j in range(k)]
    return Bigrading.build([(-1, 0, u), (0, -1, ubar), (-1, -1, [_unit(n, n - 1)])])


def _filiform(n: int) -> LieAlgebra:
    brackets = {(0, j): {j + 1: 1} for j in range(1, n - 1)}
    return LieAlgebra.from_brackets(f"filiform_{n}", n, brackets)


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


_N7_142 = LieAlgebra.from_brackets(
    "n7_142",
    7,
    {(0, 2): {1: 1}, (0, 4): {3: 1}, (0, 6): {5: 1}, (2, 4): {3: 1}, (4, 6): {1: 1}},
)
_N7_143 = LieAlgebra.from_brackets(
    "n7_143",
    7,
    {(0, 2): {1: 1}, (0, 4): {3: 1}, (0, 6): {5: 1}, (2, 4): {5: 1}, (4, 6): {1: 1}},
)

# e1 = -X7 + i(X1 - X3), e2 = X3 - i X5, e3 = conj(e1), e4 = conj(e2),
# e5 = -2i X6, e6 = 2i X2, e7 = 2i X4.
_T_37D = ExactMatrix(
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

# e1 = X3 + i X7, e2 = X1 - i X5, e3 = conj(e2), e4 = conj(e1),
# e5 = -2(X2 + i X6), e6 = 2i X4, e7 = 2(X2 - i X6)
# (the e6/e7 definitions are swapped relative to the usual citation so that
# the map lands exactly on the classical bracket table).
_T_37B = ExactMatrix(
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

_37D_GRADING = Bigrading.build(
    [
        (-1, 0, [_unit(7, 0), _unit(7, 1)]),
        (0, -1, [_unit(7, 2), _unit(7, 3)]),
        (-1, -1, [_unit(7, 4), _unit(7, 5), _unit(7, 6)]),
    ]
)
_37B_GRADING = Bigrading.build(
    [
        (-1, 0, [_unit(7, 0), _unit(7, 2)]),
        (0, -1, [_unit(7, 1), _unit(7, 3)]),
        (-1, -1, [_unit(7, 4), _unit(7, 5), _unit(7, 6)]),
    ]
)


def _n1_84() -> LieAlgebra:
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
    return LieAlgebra.from_brackets(
        "N1_84",
        8,
        {(0, 2): {4: 1}, (0, 3): {5: 1}, (1, 2): {6: 1}, (1, 3): {7: 1}},
        field="Qi",
        basis_names=("X1", "X2", "X1b", "X2b", "Z1", "Z2", "Z3", "Z4"),
        real_structure=s,
    )


_N1_84_GRADING = Bigrading.build(
    [
        (-1, 0, [_unit(8, 0), _unit(8, 1)]),
        (0, -1, [_unit(8, 2), _unit(8, 3)]),
        (-1, -1, [_unit(8, j) for j in range(4, 8)]),
    ]
)


def _n1_84_real() -> LieAlgebra:
    """Rational form on U_j = X_j + conj(X_j), V_j = i(X_j - conj(X_j)),
    P1 = i Z1, P2 = i(Z2 + Z3), P3 = Z2 - Z3, P4 = i Z4."""
    return LieAlgebra.from_brackets(
        "N1_84_real",
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
_T_84 = ExactMatrix(
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


def _entrywise_conj(v):
    return tuple(conj(x) for x in v)


def _n82_grading(key: str) -> Bigrading:
    a_gens = [_unit(8, spec) for spec in _N82_GRADING_GENERATORS[key]]
    abar = [_entrywise_conj(v) for v in a_gens]
    b_gens = [_unit(8, {6: _i(-2)}), _unit(8, {7: _i(-2)})]
    return Bigrading.build([(-1, 0, a_gens), (0, -1, abar), (-1, -1, b_gens)])


def _g_sec6() -> LieAlgebra:
    return LieAlgebra.from_brackets(
        "g_sec6",
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


_G_SEC6_GRADING = Bigrading.build(
    [
        (-1, 0, [_unit(8, {0: 1, 2: _i()}), _unit(8, {1: 1, 3: _i()})]),
        (0, -1, [_unit(8, {0: 1, 2: _i(-1)}), _unit(8, {1: 1, 3: _i(-1)})]),
        (-1, -1, [_unit(8, {4: _i(-2)}), _unit(8, {5: _i(-2)})]),
        (-2, -1, [_unit(8, {6: _i(-2), 7: 2})]),
        (-1, -2, [_unit(8, {6: _i(2), 7: 2})]),
    ]
)


def _build_catalog() -> dict[str, CatalogEntry]:
    entries: dict[str, CatalogEntry] = {}

    def add(key, algebra, gradings=(), transformations=(), provenance=""):
        entries[key] = CatalogEntry(
            key=key,
            algebra=algebra.rename(key),
            known_bigradings=tuple(gradings),
            transformations=tuple(transformations),
            provenance=provenance,
        )

    for n in range(1, 9):
        add(
            f"abelian_{n}",
            abelian(n),
            [_diagonal_grading(n)],
            provenance="abelian Lie algebra R^n; torus times Euclidean factor",
        )

    for k, key in ((1, "n3"), (2, "n5"), (3, "n7")):
        add(
            key,
            _heisenberg(k),
            [_heisenberg_grading(k)],
            provenance=f"Heisenberg algebra of dimension {2 * k + 1}",
        )

    for n in (3, 4, 5):
        add(
            f"filiform_{n}",
            _filiform(n),
            provenance="filiform algebra [X1, Xi] = X(i+1); maximal class",
        )

    add(
        "L5_parity",
        LieAlgebra.from_brackets(
            "L5_parity", 5, {(0, 1): {3: 1}, (0, 2): {4: 1}}
        ),
        provenance="two-step algebra with odd core b1 (parity obstruction)",
    )

    add(
        "n7_142",
        _N7_142,
        transformations=[("37D", _T_37D)],
        provenance="seven-dimensional classification, entry 1.2(iv)=142",
    )
    add(
        "n7_143",
        _N7_143,
        transformations=[("37B", _T_37B)],
        provenance="seven-dimensional classification, entry 1.2(iv)=143",
    )
    img_37d = apply_basis_change(_N7_142, _T_37D, name="37D")
    add(
        "37D",
        img_37d,
        [_37D_GRADING],
        provenance="complex presentation of n7_142 (classical label 3,7D)",
    )
    img_37b = apply_basis_change(_N7_143, _T_37B, name="37B")
    add(
        "37B",
        img_37b,
        [_37B_GRADING],
        provenance="complex presentation of n7_143 (classical label 3,7B)",
    )

    add(
        "N1_84",
        _n1_84(),
        [_N1_84_GRADING],
        provenance="indecomposable dim-8 two-step, b1 = 4 (complex form)",
    )
    add(
        "N1_84_real",
        _n1_84_real(),
        transformations=[("N1_84", _T_84)],
        provenance="rational form of N1_84",
    )

    for key in sorted(_N82_BRACKETS):
        add(
            key,
            LieAlgebra.from_brackets(key, 8, _N82_BRACKETS[key]),
            [_n82_grading(key)],
            provenance="indecomposable dim-8 two-step, b1 = 6",
        )

    add(
        "g_sec6",
        _g_sec6(),
        [_G_SEC6_GRADING],
        provenance="three-step dim-8 algebra with a five-component bigrading",
    )

    n3 = entries["n3"].algebra
    n5 = entries["n5"].algebra
    g_n3 = _heisenberg_grading(1)
    g_n5 = _heisenberg_grading(2)
    sums = [
        ("n3+C1", direct_sum(n3, abelian(1)), [(3, g_n3), (1, _diagonal_grading(1))]),
        ("n3+C2", direct_sum(n3, abelian(2)), [(3, g_n3), (2, _diagonal_grading(2))]),
        ("n3+C3", direct_sum(n3, abelian(3)), [(3, g_n3), (3, _diagonal_grading(3))]),
        ("n3+C4", direct_sum(n3, abelian(4)), [(3, g_n3), (4, _diagonal_grading(4))]),
        ("n5+C1", direct_sum(n5, abelian(1)), [(5, g_n5), (1, _diagonal_grading(1))]),
        ("n5+C2", direct_sum(n5, abelian(2)), [(5, g_n5), (2, _diagonal_grading(2))]),
        ("n3+n3", direct_sum(n3, n3), [(3, g_n3), (3, g_n3)]),
        (
            "n3+n3+C1",
            direct_sum(direct_sum(n3, n3), abelian(1)),
            [(3, g_n3), (3, g_n3), (1, _diagonal_grading(1))],
        ),
    ]
    for key, alg, parts in sums:
        add(
            key,
            alg,
            [_sum_grading(parts)],
            provenance="direct sum entry for the classification tables",
        )
    return entries


@lru_cache(maxsize=1)
def _catalog() -> dict[str, CatalogEntry]:
    return _build_catalog()


def catalog_keys() -> tuple[str, ...]:
    return tuple(sorted(_catalog()))


def get(key: str) -> CatalogEntry:
    try:
        return _catalog()[key]
    except KeyError:
        raise UnknownKey(key) from None


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
