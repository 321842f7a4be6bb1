"""JSON interchange for algebras, gradings, tables, reports, and verdicts.

The canonical Lie-algebra file format::

    { "name": str, "dim": int, "field": "Q" | "Qi", "basis": [str, ...],
      "brackets": [ { "i": int, "j": int, "coeffs": { "<k>": "<scalar>" } }, ... ],
      "real_structure": [[ "<scalar>", ... ], ...] | null }

Indices are 0-based with i < j; unlisted pairs are zero brackets.  Scalars use
the text grammar of nilqp.scalars.  Parse errors carry a JSON-path-like
position.  Serialization is deterministic: keys sorted, no timestamps.
"""

from __future__ import annotations

import json

from .bigrading import (
    Bigrading,
    GradingReport,
    SearchBounds,
    SearchOutcome,
)
from .checker import Verdict
from .cohomology import CohomologyTable
from .errors import ParseError, excerpt
from .exact import ExactMatrix
from .liealg import LieAlgebra, validate
from .scalars import Gaussian, Scalar, format_scalar, parse_scalar, past_digit_limit

__all__ = [
    "lie_algebra_to_json",
    "lie_algebra_from_json",
    "bigrading_to_json",
    "bigrading_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "cohomology_table_to_json",
    "grading_report_to_json",
    "search_outcome_to_json",
    "verdict_to_json",
    "dump_json",
    "dumps_json",
    "load_json",
]


def dumps_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dump_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(payload))


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        # A JSONDecodeError, bytes that are not UTF-8, or a number past the
        # interpreter's limit on int digits (sys.get_int_max_str_digits()).
        raise ParseError(f"invalid JSON: {exc}", path=str(path)) from exc


def matrix_to_json(m: ExactMatrix) -> list[list[str]]:
    return [[format_scalar(x) for x in row] for row in m.entries]


def matrix_from_json(data, path: str, cols: int | None = None) -> ExactMatrix:
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise ParseError("matrix must be a list of rows", path)
    width = len(data[0]) if cols is None and data else cols
    if width is None:
        raise ParseError("empty matrix needs a column count", path)
    rows = []
    for r, row in enumerate(data):
        if len(row) != width:
            raise ParseError(f"row has {len(row)} entries, expected {width}", f"{path}[{r}]")
        rows.append([parse_scalar(x, path=f"{path}[{r}][{c}]") for c, x in enumerate(row)])
    return ExactMatrix(rows, cols=width)


def lie_algebra_to_json(L: LieAlgebra) -> dict:
    brackets = []
    for (i, j), coeffs in L.brackets:
        brackets.append(
            {
                "i": i,
                "j": j,
                "coeffs": {str(k): format_scalar(c) for k, c in coeffs},
            }
        )
    return {
        "name": L.name,
        "dim": L.dim,
        "field": L.field,
        "basis": list(L.basis_names),
        "brackets": brackets,
        "real_structure": (
            matrix_to_json(L.real_structure)
            if L.real_structure is not None
            else None
        ),
    }


def _require(data, key, types, path):
    if key not in data:
        raise ParseError(f"missing field {key!r}", path)
    value = data[key]
    # A JSON boolean is a Python int, but never a count or an index.
    if not isinstance(value, types) or (types is int and isinstance(value, bool)):
        raise ParseError(
            f"field {key!r} has type {type(value).__name__}", f"{path}.{key}"
        )
    return value


def lie_algebra_from_json(data, path: str = "$", check: bool = True) -> LieAlgebra:
    if not isinstance(data, dict):
        raise ParseError("algebra file must be a JSON object", path)
    name = _require(data, "name", str, path)
    dim = _require(data, "dim", int, path)
    if dim < 0:
        raise ParseError("dim must be >= 0", f"{path}.dim")
    fielded = _require(data, "field", str, path)
    if fielded not in ("Q", "Qi"):
        raise ParseError(f"field must be 'Q' or 'Qi', not {fielded!r}", f"{path}.field")
    basis = _require(data, "basis", list, path)
    if len(basis) != dim or any(not isinstance(b, str) for b in basis):
        raise ParseError(f"basis must list {dim} names", f"{path}.basis")
    raw_brackets = _require(data, "brackets", list, path)
    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for idx, item in enumerate(raw_brackets):
        bpath = f"{path}.brackets[{idx}]"
        if not isinstance(item, dict):
            raise ParseError("bracket entry must be an object", bpath)
        i = _require(item, "i", int, bpath)
        j = _require(item, "j", int, bpath)
        if not 0 <= i < dim or not 0 <= j < dim:
            raise ParseError(f"indices ({i}, {j}) out of range 0..{dim - 1}", bpath)
        if i >= j:
            raise ParseError(
                f"bracket indices must satisfy i < j, got ({i}, {j})", bpath
            )
        if (i, j) in brackets:
            raise ParseError(f"duplicate bracket ({i}, {j})", bpath)
        coeffs_raw = _require(item, "coeffs", dict, bpath)
        coeffs: dict[int, Scalar] = {}
        for k_str, val in coeffs_raw.items():
            shown = excerpt(k_str)
            cpath = f"{bpath}.coeffs[{shown}]"
            try:
                k = int(k_str)
            except ValueError:
                if past_digit_limit(k_str):
                    raise ParseError(
                        f"coefficient key of {len(k_str)} characters is out of range 0..{dim - 1}",
                        cpath,
                    )
                raise ParseError(f"coefficient key {shown} is not an integer", cpath)
            # Only the spelling `lie_algebra_to_json` writes: int() reads
            # "02", " 2" or "+2" as 2 too, and one index must not be given twice.
            if k_str != str(k):
                raise ParseError(f"coefficient key {shown} is not written as {excerpt(str(k))}", cpath)
            if not 0 <= k < dim:
                raise ParseError(f"target index {shown} out of range 0..{dim - 1}", cpath)
            c = parse_scalar(val, path=cpath)
            if fielded == "Q" and isinstance(c, Gaussian) and c.im:
                raise ParseError(
                    f"coefficient {val!r} is not rational in a 'Q' algebra", cpath
                )
            coeffs[k] = c
        brackets[(i, j)] = coeffs
    real = data.get("real_structure")
    real_matrix = None
    if real is not None:
        real_matrix = matrix_from_json(real, f"{path}.real_structure", cols=dim)
        if real_matrix.rows != dim or real_matrix.cols != dim:
            raise ParseError(
                f"real structure must be {dim}x{dim}", f"{path}.real_structure"
            )
    alg = LieAlgebra.from_brackets(
        name=name,
        dim=dim,
        brackets=brackets,
        field=fielded,
        basis_names=tuple(basis),
        real_structure=real_matrix,
        check=False,
    )
    if check:
        validate(alg)
    return alg


def bigrading_to_json(g: Bigrading) -> dict:
    return {
        "components": [
            {
                "p": c.p,
                "q": c.q,
                "generators": [[format_scalar(x) for x in v] for v in c.generators],
            }
            for c in g.components
        ]
    }


def bigrading_from_json(data, path: str = "$") -> Bigrading:
    if not isinstance(data, dict):
        raise ParseError("bigrading file must be a JSON object", path)
    comps_raw = _require(data, "components", list, path)
    comps = []
    for idx, item in enumerate(comps_raw):
        cpath = f"{path}.components[{idx}]"
        if not isinstance(item, dict):
            raise ParseError("component must be an object", cpath)
        p = _require(item, "p", int, cpath)
        q = _require(item, "q", int, cpath)
        gens_raw = _require(item, "generators", list, cpath)
        gens = []
        for gdx, vec in enumerate(gens_raw):
            if not isinstance(vec, list):
                raise ParseError("generator must be a list", f"{cpath}.generators[{gdx}]")
            gens.append(
                tuple(
                    parse_scalar(x, path=f"{cpath}.generators[{gdx}][{c}]")
                    for c, x in enumerate(vec)
                )
            )
        comps.append((p, q, gens))
    return Bigrading.build(comps)


def cohomology_table_to_json(t: CohomologyTable) -> dict:
    by_bidegree = None
    if t.by_bidegree is not None:
        by_bidegree = [
            {"j": j, "p": p, "q": q, "dim": d} for (j, p, q, d) in t.by_bidegree
        ]
    reps = None
    if t.representatives is not None:
        reps = {
            str(k): [[format_scalar(x) for x in v] for v in vecs]
            for k, vecs in sorted(t.representatives.items())
        }
    return {
        "betti": list(t.betti),
        "by_bidegree": by_bidegree,
        "representatives": reps,
    }


def grading_report_to_json(r: GradingReport) -> dict:
    return {
        "mode": r.mode,
        "valid": r.valid,
        "spans": r.spans,
        "bracket_compatible": r.bracket_compatible,
        "conjugation": r.conjugation,
        "shape": r.shape,
        "cohomology_support_ok": r.cohomology_support_ok,
        "support_box_ok": r.support_box_ok,
        "failures": r.failures,
    }


def search_bounds_to_json(b: SearchBounds) -> dict:
    return {
        "coefficients": list(b.coefficients),
        "depth": b.depth,
        "max_nodes": b.max_nodes,
    }


def search_outcome_to_json(o: SearchOutcome) -> dict:
    return {
        "status": o.status,
        "reason": o.reason,
        "witness": o.witness,
        "bigrading": bigrading_to_json(o.bigrading) if o.bigrading else None,
        "report": grading_report_to_json(o.report) if o.report else None,
        "bounds": search_bounds_to_json(o.bounds) if o.bounds else None,
    }


def verdict_to_json(v: Verdict) -> dict:
    return {
        "status": v.status,
        "b1": v.b1,
        "reasons": [{"test": r.test, "witness": r.witness} for r in v.reasons],
        "bigrading": bigrading_to_json(v.bigrading) if v.bigrading else None,
    }
