"""The public record types: their text, their equality and their immutability.

The records are NamedTuples, or `nilqp._record.Record` where a tuple cannot
express them; each repr below is the one the package has always printed,
which `tests/golden.py` hashes for the grading reports.
"""

import pytest

from nilqp import (
    Bigrading,
    BigradingComponent,
    LieAlgebra,
    NilmanifoldSpec,
    SearchBounds,
    betti_numbers,
    center,
    check,
    filtrations_from_bigrading,
    lower_central_series,
    search_bigrading,
    validate,
    verify_bigrading,
)
from nilqp.catalog import CatalogEntry, get
from nilqp.checker import reproduce_classification


def _n3():
    return LieAlgebra.from_brackets("n3", 3, {(0, 1): {2: 1}})


def _n3_with_facts():
    alg = _n3()
    center(alg)
    lower_central_series(alg)
    assert alg._facts
    return alg


def _component(field):
    return BigradingComponent(-1, 0, (({0: (1, 0), 1: (0, 1)}, 1),), (3,), field)


def _grading():
    return get("n3").known_bigradings[0]


N3 = (
    "LieAlgebra(name='n3', dim=3, field='Q', basis_names=('X1', 'X2', 'X3'), "
    "table=StructureTable(field='Q', den=1, rows={(0, 1): ((2, (1, 0)),)}), real_rows=None)"
)
BOUNDS = "SearchBounds(coefficients=(-1, 0, 1), depth=2, max_nodes=20000)"

# (name, make, an equal record made another way, its repr)
RECORDS = [
    ("LieAlgebra", _n3, _n3_with_facts, N3),
    (
        "ValidationReport",
        lambda: validate(_n3()),
        None,
        "ValidationReport(valid=True, lattice_admissible=True, has_real_structure=True, "
        "dim=3, name='n3')",
    ),
    (
        "LowerCentralSeries",
        lambda: lower_central_series(_n3()),
        None,
        "LowerCentralSeries(terms=(Subspace(dim 3 in ambient 3), Subspace(dim 1 in ambient 3), "
        "Subspace(dim 0 in ambient 3)), nilpotency_class=2)",
    ),
    (
        "BigradingComponent",
        lambda: _component("Qi"),
        lambda: _component("Q"),
        "BigradingComponent(p=-1, q=0, rows=(({0: (1, 0), 1: (0, 1)}, 1),), lengths=(3,), "
        "field='Qi')",
    ),
    (
        "Bigrading",
        lambda: Bigrading.build([(-1, -1, [[0, 0, 1]])]),
        None,
        "Bigrading(components=(BigradingComponent(p=-1, q=-1, rows=(({2: (1, 0)}, 1),), "
        "lengths=(3,), field='Q'),))",
    ),
    (
        "CatalogEntry",
        lambda: CatalogEntry("n3", _n3(), (), (), "a test"),
        None,
        f"CatalogEntry(key='n3', algebra={N3}, known_bigradings=(), transformations=(), "
        "provenance='a test')",
    ),
    (
        "CohomologyTable",
        lambda: betti_numbers(_n3()),
        None,
        "CohomologyTable(betti=(1, 2, 2, 1), by_bidegree=None, representatives=None)",
    ),
    (
        "GradingReport",
        lambda: verify_bigrading(get("n3").algebra, _grading(), "strict"),
        None,
        "GradingReport(mode='strict', spans=True, bracket_compatible=True, conjugation='exact', "
        "shape='restricted', cohomology_support_ok=True, support_box_ok=True, failures=[])",
    ),
    (
        "FiltrationPair",
        lambda: filtrations_from_bigrading(_grading()),
        None,
        "FiltrationPair(ambient_dim=3, weight=((-3, Subspace(dim 0 in ambient 3)), "
        "(-2, Subspace(dim 1 in ambient 3)), (-1, Subspace(dim 3 in ambient 3))), "
        "hodge=((-1, Subspace(dim 3 in ambient 3)), (0, Subspace(dim 1 in ambient 3)), "
        "(1, Subspace(dim 0 in ambient 3))))",
    ),
    ("SearchBounds", SearchBounds, lambda: SearchBounds((-1, 0, 1), 2, 20000), BOUNDS),
    (
        "SearchOutcome",
        lambda: search_bigrading(get("L5_parity").algebra),
        None,
        "SearchOutcome(status='obstructed', reason='b1_parity', witness={'nilpotency_class': 2, "
        f"'abelian_factor': 0, 'b1_core': 3}}, bigrading=None, report=None, bounds={BOUNDS})",
    ),
    (
        "NilmanifoldSpec",
        lambda: NilmanifoldSpec(_n3(), m=2),
        lambda: NilmanifoldSpec(_n3_with_facts(), 2),
        f"NilmanifoldSpec(algebra={N3}, m=2)",
    ),
    (
        "Verdict",
        lambda: check(get("filiform_4").algebra),
        None,
        "Verdict(status='Obstructed', b1=2, reasons=[Reason(test='nilpotency_class', "
        "witness={'nilpotency_class': 3, 'series_dims': [4, 2, 1, 0]})], bigrading=None)",
    ),
    (
        "ClassificationTable",
        lambda: reproduce_classification(3),
        None,
        "ClassificationTable(dim=3, rows=(ClassificationRow(b1=2, keys=('filiform_3', 'n3')), "
        "ClassificationRow(b1=3, keys=('abelian_3',))), obstructed=(), passes_only=())",
    ),
]


# Records with a field that holds a list or a dict.
UNHASHABLE = {"GradingReport", "SearchOutcome", "Verdict"}


@pytest.mark.parametrize("name, make, twin, text", RECORDS, ids=[r[0] for r in RECORDS])
def test_records_keep_their_text_and_equality_and_refuse_assignment(name, make, twin, text):
    record = make()
    assert repr(record) == text
    # `LieAlgebra._facts` and `BigradingComponent.field` take no part in equality.
    other = (twin or make)()
    assert record == other and not record != other
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(other)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert repr(record) == text


def test_a_hand_written_record_equals_no_object_of_another_class():
    assert SearchBounds() != ((-1, 0, 1), 2, 20000)
    assert _n3() != NilmanifoldSpec(_n3())
