import json
from functools import partial

import pytest

from nilqp import Bigrading, LieAlgebra, abelian, betti_numbers
from nilqp.catalog import get
from nilqp.errors import ParseError
from nilqp.jsonio import (
    bigrading_from_json,
    bigrading_to_json,
    cohomology_table_to_json,
    dumps_json,
    lie_algebra_from_json,
    lie_algebra_to_json,
    verdict_to_json,
)


def roundtrip_algebra(key):
    alg = get(key).algebra
    data = json.loads(dumps_json(lie_algebra_to_json(alg)))
    back = lie_algebra_from_json(data)
    assert back.same_brackets(alg)
    assert back.field == alg.field
    assert back.basis_names == alg.basis_names
    if alg.real_structure is None:
        assert back.real_structure is None
    else:
        assert back.real_structure == alg.real_structure


@pytest.mark.parametrize("key", ["n3", "N1_84", "g_sec6", "37B", "n3+n3+C1"])
def test_lie_algebra_roundtrip(key):
    roundtrip_algebra(key)


def test_every_algebra_that_the_constructors_accept_round_trips():
    # from_brackets and abelian accepted a negative dimension, a field other
    # than "Q" and "Qi", and a wrong number of basis names; the last was
    # written to a file that the reader refuses.
    for dim in range(-1, 4):
        brackets = {(0, 1): {2: 1}} if dim == 3 else {}
        for field in ("Q", "Qi", "R"):
            shape_ok = dim >= 0 and field in ("Q", "Qi")
            builds = [(shape_ok, partial(abelian, dim, field))]
            for k in (None, *range(5)):
                names = None if k is None else [f"E{t}" for t in range(k)]
                build = partial(LieAlgebra.from_brackets, "g", dim, brackets, field=field, basis_names=names)
                builds.append((shape_ok and k in (None, dim), build))
            for valid, build in builds:
                if not valid:
                    with pytest.raises(ValueError):
                        build()
                    continue
                alg = build()
                data = json.loads(dumps_json(lie_algebra_to_json(alg)))
                assert lie_algebra_from_json(data) == alg


def base_doc():
    return json.loads(dumps_json(lie_algebra_to_json(get("n3").algebra)))


def test_reject_i_not_less_than_j():
    doc = base_doc()
    doc["brackets"][0]["i"], doc["brackets"][0]["j"] = 1, 1
    with pytest.raises(ParseError) as exc:
        lie_algebra_from_json(doc)
    assert "i < j" in str(exc.value)
    assert "brackets[0]" in str(exc.value)


def test_reject_out_of_range_indices():
    doc = base_doc()
    doc["brackets"][0]["j"] = 9
    with pytest.raises(ParseError) as exc:
        lie_algebra_from_json(doc)
    assert "out of range" in str(exc.value)


def test_reject_bad_target_index():
    doc = base_doc()
    doc["brackets"][0]["coeffs"] = {"7": "1"}
    with pytest.raises(ParseError) as exc:
        lie_algebra_from_json(doc)
    assert "coeffs['7']" in str(exc.value) or '"7"' in str(exc.value)


@pytest.mark.parametrize(
    "key, want",
    [("1" * 5001, "out of range 0..2"), ("-" + "1" * 5001, "out of range 0..2"),
     ("x" * 5001, "is not an integer"), ("1" * 4000, "out of range 0..2"),
     (" " + "2" * 4000, "is not written as '2222222222222222222222222222222222222222'... "
      "(4000 characters)")],
    ids=["digits", "negative", "letters", "below-the-limit", "respelled"],
)
def test_reject_long_coefficient_key_with_a_short_message(key, want):
    # int() refuses a key past the interpreter's digit limit like one that
    # is no integer at all; the message tells them apart.  Every message
    # shows only the start of a long key.
    doc = base_doc()
    doc["brackets"][0]["coeffs"] = {key: "1"}
    with pytest.raises(ParseError) as exc:
        lie_algebra_from_json(doc)
    message = str(exc.value)
    assert message.endswith(want)
    assert f"coeffs[{key[:40]!r}... ({len(key)} characters)]" in message
    assert len(message) < 300


def test_reject_malformed_scalar_with_position():
    doc = base_doc()
    doc["brackets"][0]["coeffs"] = {"2": "1..2"}
    with pytest.raises(ParseError) as exc:
        lie_algebra_from_json(doc)
    assert "brackets[0].coeffs" in str(exc.value)


def test_reject_duplicate_bracket():
    doc = base_doc()
    doc["brackets"].append(dict(doc["brackets"][0]))
    with pytest.raises(ParseError) as exc:
        lie_algebra_from_json(doc)
    assert "duplicate" in str(exc.value)


def test_reject_wrong_basis_length():
    doc = base_doc()
    doc["basis"] = ["X1"]
    with pytest.raises(ParseError):
        lie_algebra_from_json(doc)


def test_reject_bad_field_tag():
    doc = base_doc()
    doc["field"] = "R"
    with pytest.raises(ParseError) as exc:
        lie_algebra_from_json(doc)
    assert ".field" in str(exc.value)


def test_reject_booleans_as_bracket_indices():
    # {"i": false, "j": true} was read as the bracket [X1, X2].
    doc = base_doc()
    doc["brackets"][0].update(i=False, j=True)
    with pytest.raises(ParseError) as exc:
        lie_algebra_from_json(doc)
    assert exc.value.path == "$.brackets[0].i"
    assert "bool" in str(exc.value)
    doc = base_doc()
    doc["brackets"][0]["j"] = True
    with pytest.raises(ParseError) as exc:
        lie_algebra_from_json(doc)
    assert exc.value.path == "$.brackets[0].j"


def test_reject_boolean_dim():
    doc = {
        "name": "a1",
        "dim": True,
        "field": "Q",
        "basis": ["X"],
        "brackets": [],
        "real_structure": None,
    }
    with pytest.raises(ParseError) as exc:
        lie_algebra_from_json(doc)
    assert exc.value.path == "$.dim"


@pytest.mark.parametrize("key", ["p", "q"])
def test_reject_boolean_bidegree(key):
    doc = json.loads(dumps_json(bigrading_to_json(get("n3").known_bigradings[0])))
    doc["components"][0][key] = False
    with pytest.raises(ParseError) as exc:
        bigrading_from_json(doc)
    assert exc.value.path == f"$.components[0].{key}"


def test_reject_short_real_structure_row():
    # A short row used to reach `ExactMatrix`, which refused it as ragged,
    # an internal error.  Each row must hold dim entries.
    doc = json.loads(dumps_json(lie_algebra_to_json(get("37B").algebra)))
    doc["real_structure"][0].pop()
    with pytest.raises(ParseError) as exc:
        lie_algebra_from_json(doc)
    assert exc.value.path == "$.real_structure[0]"
    assert "row has 6 entries, expected 7" in str(exc.value)
    doc = json.loads(dumps_json(lie_algebra_to_json(get("37B").algebra)))
    doc["real_structure"][3].append("0")
    with pytest.raises(ParseError) as exc:
        lie_algebra_from_json(doc)
    assert exc.value.path == "$.real_structure[3]"


def test_unlisted_pairs_are_zero():
    doc = {
        "name": "a2",
        "dim": 2,
        "field": "Q",
        "basis": ["X", "Y"],
        "brackets": [],
        "real_structure": None,
    }
    alg = lie_algebra_from_json(doc)
    assert alg.is_abelian()


def test_bigrading_roundtrip():
    g = get("g_sec6").known_bigradings[0]
    back = bigrading_from_json(json.loads(dumps_json(bigrading_to_json(g))))
    assert back == g


def test_bigrading_built_from_booleans_round_trips():
    # True is the scalar 1, and its file reads back: it used to print "True".
    g = Bigrading.build([(-1, -1, [(True, 0, False), (0, 1, 0)]), (-2, -2, [(0, 0, True)])])
    doc = json.loads(dumps_json(bigrading_to_json(g)))
    assert doc["components"][0]["generators"] == [["1", "0", "0"], ["0", "1", "0"]]
    back = bigrading_from_json(doc)
    assert back == g and back == Bigrading.build([(-1, -1, [(1, 0, 0), (0, 1, 0)]), (-2, -2, [(0, 0, 1)])])


def test_bigrading_parse_error_position():
    doc = {"components": [{"p": -1, "q": 0, "generators": [["1", "oops"]]}]}
    with pytest.raises(ParseError) as exc:
        bigrading_from_json(doc)
    assert "components[0].generators[0][1]" in str(exc.value)


def test_cohomology_table_json_shape():
    t = betti_numbers(get("n3").algebra, representatives=True)
    payload = cohomology_table_to_json(t)
    assert payload["betti"] == [1, 2, 2, 1]
    assert payload["by_bidegree"] is None
    assert payload["representatives"]["1"] == [["1", "0", "0"], ["0", "1", "0"]]


def test_verdict_json_shape():
    from nilqp.checker import NilmanifoldSpec, check

    v = check(NilmanifoldSpec(get("n3").algebra, m=1))
    payload = verdict_to_json(v)
    assert payload["status"] == "BigradingExhibited"
    assert payload["b1"] == 2
    assert payload["bigrading"] is not None
    assert all({"test", "witness"} <= set(r) for r in payload["reasons"])


def test_dumps_deterministic():
    t = betti_numbers(get("n5").algebra)
    assert dumps_json(cohomology_table_to_json(t)) == dumps_json(
        cohomology_table_to_json(betti_numbers(get("n5").algebra))
    )
