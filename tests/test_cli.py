import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nilqp
from nilqp.cli import run
from nilqp.catalog import catalog_keys, get
from nilqp.cohomology import betti_numbers
from nilqp.errors import ParseError
from nilqp.jsonio import dump_json, lie_algebra_from_json, lie_algebra_to_json, load_json
from nilqp.scalars import Rational, format_scalar, parse_scalar

from conftest import moved_parity_sum


@pytest.fixture
def n3_file(tmp_path):
    path = tmp_path / "n3.json"
    dump_json(path, lie_algebra_to_json(get("n3").algebra))
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.json"
    doc = lie_algebra_to_json(get("n3").algebra)
    doc["brackets"][0]["i"] = 2  # i >= j
    dump_json(path, doc)
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys, n3_file):
    code, out, _ = invoke(capsys, "validate", n3_file)
    assert code == 0
    assert "valid" in out and "lattice admissible: yes" in out


def test_validate_json(capsys, n3_file):
    code, out, _ = invoke(capsys, "--format", "json", "validate", n3_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] and doc["lattice_admissible"]


def test_parse_error_exit_code_1(capsys, bad_file):
    code, out, err = invoke(capsys, "validate", bad_file)
    assert code == 1
    assert "i < j" in err


def test_parse_error_json_on_stdout(capsys, bad_file):
    code, out, _ = invoke(capsys, "--format", "json", "validate", bad_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["kind"] == "input"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_boolean_bracket_indices_exit_code_1(capsys, tmp_path, fmt):
    # Read as the bracket [X1, X2], this file used to validate.
    doc = lie_algebra_to_json(get("n3").algebra)
    doc["brackets"][0].update(i=False, j=True)
    path = tmp_path / "bool_indices.json"
    dump_json(path, doc)
    code, out, err = invoke(capsys, "--format", fmt, "validate", str(path))
    assert code == 1
    if fmt == "json":
        error = json.loads(out)["error"]
        assert error["kind"] == "input"
        message = error["message"]
    else:
        message = err
    # The position is the file's path followed by the JSON path.
    assert "bool_indices.json.brackets[0].i: field 'i' has type bool" in message


def _n3_with_constant(tmp_path, text):
    """n3's file with its one constant, [X1, X2] = c X3, written as ``text``."""
    doc = lie_algebra_to_json(get("n3").algebra)
    assert doc["field"] == "Q" and doc["brackets"][0]["coeffs"] == {"2": "1"}
    doc["brackets"][0]["coeffs"] = {"2": text}
    path = tmp_path / "n3_const.json"
    dump_json(path, doc)
    return str(path)


@pytest.mark.parametrize("command", ["validate", "check"])
def test_non_real_constant_over_q_exit_code_1(capsys, tmp_path, command):
    path = _n3_with_constant(tmp_path, "i")
    code, out, err = invoke(capsys, command, path)
    assert code == 1 and not out
    assert f"{path}.brackets[0].coeffs['2']" in err and "'i'" in err
    code, out, _ = invoke(capsys, "--format", "json", command, path)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["kind"] == "input"
    assert f"{path}.brackets[0].coeffs['2']" in doc["error"]["message"]


@pytest.mark.parametrize("command", ["validate", "check"])
def test_real_constant_written_as_gaussian_is_accepted_over_q(capsys, tmp_path, command, n3_file):
    code, out, _ = invoke(
        capsys, "--format", "json", command, _n3_with_constant(tmp_path, "1+0*i")
    )
    assert code == 0
    _, want, _ = invoke(capsys, "--format", "json", command, n3_file)
    assert out == want


@pytest.mark.parametrize("command", ["validate", "check", "bigrading-search", "cohomology"])
def test_short_real_structure_row_exit_code_1(capsys, tmp_path, command):
    doc = lie_algebra_to_json(get("37B").algebra)
    doc["real_structure"][0].pop()
    path = tmp_path / "37b_short.json"
    dump_json(path, doc)
    code, out, _ = invoke(capsys, "--format", "json", command, str(path))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "input"
    assert f"{path}.real_structure[0]: row has 6 entries, expected 7" in error["message"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_non_automorphism_real_structure_over_q_exit_code_1(capsys, tmp_path, fmt):
    # S swaps X1 and X2 but keeps X3, so S[X1, X2] != [S X1, S X2].
    doc = lie_algebra_to_json(get("n3").algebra)
    doc["real_structure"] = [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]]
    path = tmp_path / "n3_swap.json"
    dump_json(path, doc)
    code, out, err = invoke(capsys, "--format", fmt, "validate", str(path))
    assert code == 1
    message = json.loads(out)["error"]["message"] if fmt == "json" else err
    assert "conjugation is not a bracket automorphism on pair (0, 1)" in message


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_non_identity_real_structure_over_q_exit_code_1(capsys, tmp_path, fmt):
    # S = (X1 <-> X2, X3 -> -X3) is a bracket automorphism of n3, but over Q
    # nothing conjugates by it, so it is refused rather than ignored.  An S
    # with imaginary entries, here not even an involution, is refused where
    # it is read, with the same text.
    doc = lie_algebra_to_json(get("n3").algebra)
    twisted = [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "-1"]]
    imaginary = [["0", "1*i", "0"], ["-1*i", "0", "0"], ["0", "0", "1"]]
    for s in (twisted, imaginary):
        doc["real_structure"] = s
        path = tmp_path / "n3_twisted.json"
        dump_json(path, doc)
        for command in ("validate", "check"):
            code, out, err = invoke(capsys, "--format", fmt, command, str(path))
            assert code == 1, command
            if fmt == "json":
                error = json.loads(out)["error"]
                assert error["type"] == "InvalidRealStructure", command
                err = error["message"]
            assert "n3: a real structure over Q must be the identity" in err, command


@pytest.mark.parametrize("key", ["2 ", " 2", "02", "+2", "\u0662"])
@pytest.mark.parametrize("command", ["validate", "cohomology"])
def test_respelled_coefficient_key_exit_code_1(capsys, tmp_path, command, key):
    # int() reads each spelling as index 2, so this file used to give
    # [X1, X2] twice and keep the later value: [X1, X2] = -X3.
    doc = lie_algebra_to_json(get("n3").algebra)
    doc["brackets"][0]["coeffs"] = {"2": "1", key: "-1"}
    path = tmp_path / "n3_respelled.json"
    dump_json(path, doc)
    code, out, _ = invoke(capsys, "--format", "json", command, str(path))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert f"{path}.brackets[0].coeffs[{key!r}]: coefficient key {key!r}" in error["message"]
    # Alone, the spelling is refused too.
    doc["brackets"][0]["coeffs"] = {key: "1"}
    dump_json(path, doc)
    code, out, _ = invoke(capsys, "--format", "json", command, str(path))
    assert code == 1 and json.loads(out)["error"]["type"] == "ParseError"


def test_missing_file_exit_code_1(capsys, tmp_path):
    code, _, err = invoke(capsys, "validate", str(tmp_path / "none.json"))
    assert code == 1


def _input_error(capsys, *argv):
    """The message of the one input error that ``argv`` exits 1 with, in JSON."""
    code, out, _ = invoke(capsys, "--format", "json", *argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "input"
    return error["message"]


@pytest.mark.parametrize("as_grading", [False, True], ids=["algebra", "grading"])
def test_invalid_json_exit_code_1(capsys, tmp_path, n3_file, as_grading):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "n3", "dim": 3,')
    argv = [n3_file, "--bigrading", str(path)] if as_grading else [str(path)]
    message = _input_error(capsys, "cohomology", *argv)
    assert message.startswith(f"{path}: invalid JSON: ")



# json.load refuses these with a ValueError that is not a JSONDecodeError.
@pytest.mark.parametrize(
    "content",
    [b'{"name": "n3", "dim": 3' + b"0" * 5000 + b"}", b'{"name": "n3\xff"}'],
    ids=["number-past-the-digit-limit", "not-utf-8"],
)
def test_unreadable_json_exit_code_1(capsys, tmp_path, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    message = _input_error(capsys, "validate", str(path))
    assert message.startswith(f"{path}: invalid JSON: ")

def _algebra_doc():
    return lie_algebra_to_json(get("n3").algebra)


def _grading_doc():
    from nilqp.jsonio import bigrading_to_json

    return bigrading_to_json(get("n3").known_bigradings[0])


def _no_object(doc):
    return [doc]


def _negative_dim(doc):
    doc["dim"] = -1
    return doc


def _bracket_not_object(doc):
    doc["brackets"][0] = [0, 1, {"2": "1"}]
    return doc


def _component_not_object(doc):
    doc["components"][0] = [-1, 0]
    return doc


def _generator_not_list(doc):
    doc["components"][0]["generators"][0] = "1, i, 0"
    return doc


@pytest.mark.parametrize(
    "target, mutate, want",
    [
        ("algebra", _no_object, "$: algebra file must be a JSON object"),
        ("algebra", _negative_dim, ".dim: dim must be >= 0"),
        ("algebra", _bracket_not_object, ".brackets[0]: bracket entry must be an object"),
        ("grading", _no_object, "$: bigrading file must be a JSON object"),
        ("grading", _component_not_object, ".components[0]: component must be an object"),
        (
            "grading",
            _generator_not_list,
            ".components[0].generators[0]: generator must be a list",
        ),
    ],
    ids=["algebra-list", "negative-dim", "bracket", "grading-list", "component", "generator"],
)
def test_malformed_documents_exit_code_1(capsys, tmp_path, target, mutate, want):
    apath, gpath = tmp_path / "algebra.json", tmp_path / "grading.json"
    docs = {"algebra": _algebra_doc(), "grading": _grading_doc()}
    docs[target] = mutate(docs[target])
    dump_json(apath, docs["algebra"])
    dump_json(gpath, docs["grading"])
    bad = {"algebra": apath, "grading": gpath}[target]
    message = _input_error(capsys, "cohomology", str(apath), "--bigrading", str(gpath))
    assert message == f"{bad}{want.removeprefix('$')}"
    if target == "algebra":
        assert _input_error(capsys, "validate", str(apath)) == message
    else:
        assert _input_error(capsys, "bigrading-verify", str(apath), str(gpath)) == message


def test_cohomology_with_too_few_grading_generators_exit_code_1(capsys, tmp_path):
    # n3's grading without its (-1, -1) component: two generators in dimension 3.
    from nilqp import complexify

    apath = tmp_path / "n3c.json"
    dump_json(apath, lie_algebra_to_json(complexify(get("n3").algebra)))
    doc = _grading_doc()
    doc["components"] = [c for c in doc["components"] if (c["p"], c["q"]) != (-1, -1)]
    assert len(doc["components"]) == 2
    gpath = tmp_path / "short.json"
    dump_json(gpath, doc)
    message = _input_error(capsys, "cohomology", str(apath), "--bigrading", str(gpath))
    assert message == "grading has 2 generators for dimension 3"


def test_cohomology_text_and_json_agree(capsys, n3_file):
    code, text_out, _ = invoke(capsys, "cohomology", n3_file)
    assert code == 0
    assert "betti [1, 2, 2, 1]" in text_out
    code, json_out, _ = invoke(capsys, "--format", "json", "cohomology", n3_file)
    assert json.loads(json_out)["betti"] == [1, 2, 2, 1]


def test_cohomology_with_bigrading(capsys, tmp_path, n3_file):
    from nilqp.jsonio import bigrading_to_json
    from nilqp import complexify

    cpath = tmp_path / "n3c.json"
    dump_json(cpath, lie_algebra_to_json(complexify(get("n3").algebra)))
    gpath = tmp_path / "g.json"
    dump_json(gpath, bigrading_to_json(get("n3").known_bigradings[0]))
    code, out, _ = invoke(
        capsys,
        "--format",
        "json",
        "cohomology",
        str(cpath),
        "--bigrading",
        str(gpath),
    )
    assert code == 0
    doc = json.loads(out)
    assert {"j": 2, "p": 2, "q": 1, "dim": 1} in doc["by_bidegree"]


@pytest.mark.parametrize("command", ["cohomology", "bigrading-verify"])
def test_short_grading_generator_exit_code_1(capsys, tmp_path, command):
    # A generator one entry short: both commands refuse it as verification
    # does, with AmbientMismatch, where cohomology used to exit 2.
    from nilqp import complexify
    from nilqp.jsonio import bigrading_to_json

    cpath = tmp_path / "n3c.json"
    dump_json(cpath, lie_algebra_to_json(complexify(get("n3").algebra)))
    doc = bigrading_to_json(get("n3").known_bigradings[0])
    doc["components"][0]["generators"][0].pop()
    gpath = tmp_path / "g.json"
    dump_json(gpath, doc)
    argv = ["cohomology", str(cpath), "--bigrading", str(gpath)]
    if command == "bigrading-verify":
        argv = [command, str(cpath), str(gpath)]
    code, out, _ = invoke(capsys, "--format", "json", *argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "input"
    assert error["message"] == "vector of length 2 in ambient dimension 3"


def test_dependent_grading_generators_exit_code_1(capsys, tmp_path):
    # The (0, -1) generator twice the (-1, 0) one: cohomology refuses the
    # grading as bigrading-verify reports it, by the generators' rank.
    from nilqp.jsonio import bigrading_to_json

    apath = tmp_path / "n3.json"
    dump_json(apath, lie_algebra_to_json(get("n3").algebra))
    doc = bigrading_to_json(get("n3").known_bigradings[0])
    assert doc["components"][0]["generators"] == [["1", "1*i", "0"]]
    assert (doc["components"][1]["p"], doc["components"][1]["q"]) == (0, -1)
    doc["components"][1]["generators"] = [["2", "2*i", "0"]]
    gpath = tmp_path / "dep.json"
    dump_json(gpath, doc)
    code, out, _ = invoke(
        capsys, "--format", "json", "cohomology", str(apath), "--bigrading", str(gpath)
    )
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "input"
    assert error["message"] == "grading has 3 generators of rank 2 in dimension 3"
    code, out, _ = invoke(capsys, "--format", "json", "bigrading-verify", str(apath), str(gpath))
    assert json.loads(out)["failures"][0]["detail"] == "3 generators of rank 2 in dimension 3"


def test_check_verdict_exit_zero_even_when_obstructed(capsys, tmp_path):
    path = tmp_path / "fil4.json"
    dump_json(path, lie_algebra_to_json(get("filiform_4").algebra))
    code, out, _ = invoke(capsys, "--format", "json", "check", str(path), "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Obstructed"


def test_check_passes_necessary_json(capsys, tmp_path):
    path = tmp_path / "parity_sum.json"
    dump_json(path, lie_algebra_to_json(moved_parity_sum()))
    code, out, _ = invoke(
        capsys, "--format", "json", "check", str(path), "--max-nodes", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "PassesNecessaryConditions"
    assert doc["bigrading"] is None
    assert doc["reasons"][-1] == {
        "test": "bigrading_search",
        "witness": {
            "outcome": "not_found_within_bounds",
            "coefficients": [-1, 0, 1],
            "depth": 2,
            "max_nodes": 1,
        },
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{file}", "--m", "-1"],
        ["check", "{file}", "--max-nodes", "0"],
        ["check", "{file}", "--coeffs", "1,x"],
        ["check", "{file}", "--depth", "4"],
        ["report", "--dim", "9"],
    ],
    ids=["m", "max-nodes", "coeffs", "depth", "dim"],
)
def test_bad_arguments_exit_1_with_one_input_error(capsys, n3_file, argv):
    argv = [a.format(file=n3_file) for a in argv]
    code, out, _ = invoke(capsys, "--format", "json", *argv)
    assert code == 1
    doc, end = json.JSONDecoder().raw_decode(out)
    assert not out[end:].strip()
    assert doc["error"]["kind"] == "input"


# Since 3.10.7 CPython refuses int <-> str conversions past 4,300 digits by
# default.  A 5,001-digit constant in a file, and a 7,398-character
# representative of h5 with 2,500-digit constants, are read and written in
# full.
BIG = "1" + "0" * 4999 + "1"  # 10**5000 + 1
H5_CONSTANTS = ("7" * 2500, "3" + "1" * 2499 + "/" + "9" * 2400)


def _algebra_file(tmp_path, name, basis, brackets) -> str:
    path = tmp_path / f"{name}.json"
    doc = {
        "basis": basis,
        "brackets": [{"coeffs": {str(k): c}, "i": i, "j": j} for i, j, k, c in brackets],
        "dim": len(basis),
        "field": "Q",
        "name": name,
        "real_structure": None,
    }
    dump_json(path, doc)
    return str(path)


def _scalar_texts(doc):
    """Every string of a JSON document that reads as a scalar."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [t for item in doc for t in _scalar_texts(item)]
    if isinstance(doc, str):
        try:
            parse_scalar(doc)
        except ParseError:
            return []
        return [doc]
    return []


def test_constant_past_the_digit_limit_exit_0_and_round_trips(capsys, tmp_path):
    path = _algebra_file(tmp_path, "n3_big", ["X", "Y", "Z"], [(0, 1, 2, BIG)])
    for command in (["validate"], ["cohomology"], ["check"]):
        code, out, _ = invoke(capsys, "--format", "json", *command, path)
        assert code == 0, command
    texts = _scalar_texts(json.loads(out)["bigrading"])
    assert max(map(len, texts)) > 5000
    assert [format_scalar(parse_scalar(t)) for t in texts] == texts
    alg = lie_algebra_from_json(load_json(path))
    assert dict(alg.brackets[0][1]) == {2: Rational(10**5000 + 1)}
    assert lie_algebra_to_json(alg)["brackets"][0]["coeffs"] == {"2": BIG}


def test_representatives_past_the_digit_limit_exit_0_and_round_trip(capsys, tmp_path):
    a, b = H5_CONSTANTS
    path = _algebra_file(
        tmp_path, "h5_big", ["X1", "X2", "Y1", "Y2", "Z"], [(0, 2, 4, a), (1, 3, 4, b)]
    )
    code, out, _ = invoke(capsys, "--format", "json", "cohomology", "--representatives", path)
    assert code == 0
    reps = json.loads(out)["representatives"]
    want = betti_numbers(lie_algebra_from_json(load_json(path)), representatives=True)
    assert sorted(reps) == [str(k) for k in sorted(want.representatives)]
    for k, vecs in want.representatives.items():
        assert [[parse_scalar(t) for t in v] for v in reps[str(k)]] == [list(v) for v in vecs]
    texts = _scalar_texts(reps)
    assert max(map(len, texts)) > 4300
    assert [format_scalar(parse_scalar(t)) for t in texts] == texts


# An integer that int() refuses for its digits is out of range, not "not an
# integer"; no message echoes more than the start of a long input.
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_coeffs_past_the_digit_limit_exit_1_out_of_range(capsys, n3_file, fmt):
    cases = [
        ("1," + "1" * 5000, "--coeffs entry of 5000 characters is out of range"),
        ("1,-" + "1" * 5000, "--coeffs entry of 5001 characters is out of range"),
        ("1," + "x" * 5000, "--coeffs must be integers, got '1,xxxx"),
    ]
    for coeffs, want in cases:
        argv = ["check", n3_file, "--coeffs", coeffs]
        if fmt == "json":
            message = _input_error(capsys, "--format", "json", *argv)
        else:
            code, out, message = invoke(capsys, *argv)
            assert code == 1 and not out
        assert want in message
        assert len(message) < 200


def test_coefficient_key_past_the_digit_limit_exit_1_out_of_range(capsys, tmp_path):
    doc = lie_algebra_to_json(get("n3").algebra)
    path = tmp_path / "n3_long_key.json"
    for key, want in (("1" * 5001, "out of range 0..2"), ("x" * 5001, "is not an integer")):
        doc["brackets"][0]["coeffs"] = {key: "1"}
        dump_json(path, doc)
        for command in ("validate", "check"):
            message = _input_error(capsys, command, str(path))
            assert message.endswith(want), command
            assert f"{path}.brackets[0].coeffs[{key[:40]!r}... (5001 characters)]" in message
            assert len(message) < len(str(path)) + 200
            code, out, err = invoke(capsys, command, str(path))
            assert code == 1 and not out and len(err) < len(str(path)) + 250


def test_long_malformed_constant_exit_1_with_a_short_message(capsys, tmp_path):
    cases = (("1/" + "0" * 5001, "zero denominator"), ("1" * 5000 + "x", "expected '+' or '-'"))
    for constant, want in cases:
        path = _algebra_file(tmp_path, "n3_bad", ["X", "Y", "Z"], [(0, 1, 2, constant)])
        message = _input_error(capsys, "validate", path)
        assert want in message and f"... ({len(constant)} characters)" in message
        assert len(message) < len(path) + 150
        code, out, err = invoke(capsys, "validate", path)
        assert code == 1 and not out and len(err) < len(path) + 200


def test_check_n3(capsys, n3_file):
    code, out, _ = invoke(capsys, "--format", "json", "check", n3_file, "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "BigradingExhibited"
    assert doc["b1"] == 2 and doc["m"] == 1


def test_bigrading_verify_cli(capsys, tmp_path):
    from nilqp import complexify
    from nilqp.jsonio import bigrading_to_json

    apath = tmp_path / "n3c.json"
    dump_json(apath, lie_algebra_to_json(complexify(get("n3").algebra)))
    gpath = tmp_path / "g.json"
    dump_json(gpath, bigrading_to_json(get("n3").known_bigradings[0]))
    code, out, _ = invoke(
        capsys, "--format", "json", "bigrading-verify", str(apath), str(gpath)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] and doc["shape"] == "restricted"


def test_bigrading_search_cli(capsys, n3_file):
    code, out, _ = invoke(capsys, "--format", "json", "bigrading-search", n3_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "found"
    assert doc["report"]["valid"]


def test_bigrading_search_bounds_flags(capsys, n3_file):
    code, out, _ = invoke(
        capsys,
        "--format",
        "json",
        "bigrading-search",
        n3_file,
        "--coeffs=-2,-1,0,1,2",
        "--depth",
        "3",
        "--max-nodes",
        "100",
    )
    assert code == 0
    assert json.loads(out)["bounds"]["depth"] == 3


@pytest.mark.parametrize("depth", ["0", "4"])
def test_bigrading_search_depth_out_of_range_exit_1(capsys, n3_file, depth):
    code, out, err = invoke(capsys, "bigrading-search", n3_file, "--depth", depth)
    assert code == 1
    assert not out and "--depth must be 1, 2 or 3" in err
    code, out, _ = invoke(
        capsys, "--format", "json", "bigrading-search", n3_file, "--depth", depth
    )
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "input"


def test_catalog_list_show_export(capsys, tmp_path):
    code, out, _ = invoke(capsys, "catalog", "list")
    assert code == 0
    assert "n3" in out.split()
    code, out, _ = invoke(capsys, "--format", "json", "catalog", "show", "N1_84")
    doc = json.loads(out)
    assert doc["algebra"]["field"] == "Qi"
    code, out, _ = invoke(
        capsys, "catalog", "export", "n7_142", str(tmp_path / "exp")
    )
    assert code == 0
    assert (tmp_path / "exp" / "n7_142.algebra.json").exists()
    assert (tmp_path / "exp" / "n7_142.transform.37D.json").exists()


def test_catalog_unknown_key_exit_1(capsys):
    code, _, err = invoke(capsys, "catalog", "show", "missing")
    assert code == 1


def test_report_dim7_json(capsys):
    code, out, _ = invoke(capsys, "--format", "json", "report", "--dim", "7")
    assert code == 0
    doc = json.loads(out)
    rows = {r["b1"]: r["keys"] for r in doc["rows"]}
    assert rows[4] == ["n7_142", "n7_143"]


@pytest.mark.parametrize("dim", ["0", "9"])
def test_report_dim_out_of_range_json_error(capsys, dim):
    code, out, _ = invoke(capsys, "--format", "json", "report", "--dim", dim)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["kind"] == "input"
    assert "--dim" in doc["error"]["message"]


def test_outputs_byte_identical_across_runs(capsys, n3_file):
    outs = []
    for _ in range(2):
        code, out, _ = invoke(
            capsys, "--format", "json", "check", n3_file, "--m", "1"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    code_a, text_a, _ = invoke(capsys, "report", "--dim", "5")
    code_b, text_b, _ = invoke(capsys, "report", "--dim", "5")
    assert text_a == text_b


def test_seedless_flag_accepted(capsys, n3_file):
    code, out, _ = invoke(capsys, "--seedless", "cohomology", n3_file)
    assert code == 0


def test_backend_command(capsys):
    code, out, _ = invoke(capsys, "backend")
    assert code == 0
    assert out.strip() == "pure"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unexpected_exception_exit_code_2(capsys, monkeypatch, n3_file, fmt):
    def boom(*args, **kwargs):
        raise RuntimeError("unexpected failure")

    monkeypatch.setattr("nilqp.cli.validate", boom)
    code, out, err = invoke(capsys, "--format", fmt, "validate", n3_file)
    assert code == 2
    if fmt == "json":
        assert json.loads(out) == {
            "error": {
                "kind": "internal",
                "type": "RuntimeError",
                "message": "unexpected failure",
            }
        }
        assert err == ""
    else:
        assert out == ""
        assert err == "error (RuntimeError): unexpected failure\n"


# -- mutated catalog files --------------------------------------------------------

FUZZ_COMMANDS = (
    ["validate"],
    ["check", "--max-nodes", "500"],
    ["cohomology"],
    ["bigrading-search", "--max-nodes", "500"],
)
# Values of other JSON types; none is an int above any file's own dim.
OTHER_TYPES = (None, True, False, -1, 1.5, "x", [], {})
SCALARS = ("0", "2", "-1/2", "1+i", "2*i", "1/3-2*i")


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """The algebra file that `catalog export` writes for every catalog entry."""
    directory = tmp_path_factory.mktemp("exported")
    with redirect_stdout(io.StringIO()):
        for key in catalog_keys():
            assert run(["--format", "json", "catalog", "export", key, str(directory)]) == 0
    return directory


def _slots(value):
    """Every (container, key) of a JSON document, the document's own keys first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    slots = []
    for key, child in items:
        slots.append((value, key))
        if isinstance(child, (dict, list)):
            slots += _slots(child)
    return slots


def _drop_key(doc, data):
    target = data.draw(st.sampled_from([doc, *doc["brackets"]]))
    del target[data.draw(st.sampled_from(sorted(target)))]


def _swap_type(doc, data):
    container, key = data.draw(st.sampled_from(_slots(doc)))
    container[key] = data.draw(st.sampled_from(OTHER_TYPES))


def _bad_index(doc, data):
    if not doc["brackets"]:
        return
    entry = data.draw(st.sampled_from(doc["brackets"]))
    index = data.draw(st.sampled_from((True, False, -1, doc["dim"], doc["dim"] + 1)))
    slot = data.draw(st.sampled_from(("i", "j", "k")))
    if slot != "k":
        entry[slot] = index
    else:
        old = data.draw(st.sampled_from(sorted(entry["coeffs"])))
        entry["coeffs"][str(index)] = entry["coeffs"].pop(old)


def _short_row(doc, data):
    if doc["real_structure"]:
        data.draw(st.sampled_from(doc["real_structure"])).pop()


def _perturb_constant(doc, data):
    if not doc["brackets"]:
        return
    entry = data.draw(st.sampled_from(doc["brackets"]))
    k = data.draw(st.integers(0, doc["dim"] - 1))
    entry["coeffs"][str(k)] = data.draw(st.sampled_from(SCALARS))


def _respell_key(doc, data):
    # Another spelling of a target index that int() reads as the same index.
    if not doc["brackets"]:
        return
    entry = data.draw(st.sampled_from(doc["brackets"]))
    old = data.draw(st.sampled_from(sorted(entry["coeffs"])))
    new = data.draw(st.sampled_from((f"0{old}", f" {old}", f"{old} ", f"+{old}")))
    entry["coeffs"][new] = entry["coeffs"].pop(old)


MUTATIONS = (_drop_key, _swap_type, _bad_index, _short_row, _perturb_constant, _respell_key)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_catalog_files_exit_0_or_1_with_one_json_document(exported, data):
    key = data.draw(st.sampled_from(catalog_keys()))
    doc = json.loads((exported / f"{key}.algebra.json").read_text())
    data.draw(st.sampled_from(MUTATIONS))(doc, data)
    path = exported / "mutated.json"
    dump_json(path, doc)
    for command in FUZZ_COMMANDS:
        out = io.StringIO()
        with redirect_stdout(out):
            code = run(["--format", "json", command[0], str(path), *command[1:]])
        assert code in (0, 1), (command, out.getvalue())
        json.loads(out.getvalue())  # exactly one document: trailing text is an error


# Entries that reach the J-space (n7_142) and regular-pencil (N4_82)
# constructions, an algebra over Q(i) (37B) and one of class 3 (g_sec6).
HASH_SEED_KEYS = ("37B", "N4_82", "n7_142", "g_sec6")
HASH_SEED_COMMANDS = (["check"], ["bigrading-search"], ["cohomology", "--representatives"])


def test_output_is_byte_identical_across_hash_seeds(exported):
    # Each command runs in two interpreters with different string-hash
    # seeds, which reorder sets and dicts keyed by strings; stdout and the
    # exit code must not change.
    src = str(Path(nilqp.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for key in HASH_SEED_KEYS:
        for command in HASH_SEED_COMMANDS:
            argv = [sys.executable, "-m", "nilqp", "--format", "json", *command,
                    str(exported / f"{key}.algebra.json")]
            runs = [
                subprocess.Popen(
                    argv,
                    stdout=subprocess.PIPE,
                    env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                )
                for seed in ("0", "4242")
            ]
            (out0, code0), (out1, code1) = ((p.communicate()[0], p.returncode) for p in runs)
            assert out0 and code0 in (0, 1), (key, command)
            assert (out0, code0) == (out1, code1), (key, command)
