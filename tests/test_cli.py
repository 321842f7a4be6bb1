import json

import pytest

from nilqp.cli import run
from nilqp.catalog import get
from nilqp.jsonio import dump_json, lie_algebra_to_json


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


def test_missing_file_exit_code_1(capsys, tmp_path):
    code, _, err = invoke(capsys, "validate", str(tmp_path / "none.json"))
    assert code == 1


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


def test_check_verdict_exit_zero_even_when_obstructed(capsys, tmp_path):
    path = tmp_path / "fil4.json"
    dump_json(path, lie_algebra_to_json(get("filiform_4").algebra))
    code, out, _ = invoke(capsys, "--format", "json", "check", str(path), "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Obstructed"


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
