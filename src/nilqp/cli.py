"""Command-line interface.

Exit codes: 0 for any successful run (mathematical verdicts, including
obstructions, are successes), 1 for invalid input (parse errors, Jacobi
failures, unknown keys, bad files), 2 for internal invariant violations and
any other unexpected exception, which is reported like an error of kind
"internal" rather than as a traceback.
Output is deterministic: no timestamps, no randomness, fixed ordering; with
--format json every result and every error is a single JSON document.
Each command imports the modules it runs, so `catalog`, `validate` and
`backend` compile no search code, and only `catalog`, `check` and `report`
compile the catalog.
"""

from __future__ import annotations

import argparse
import sys

from ._version import __version__
from .errors import InputError, InternalError, excerpt
from .jsonio import (
    bigrading_from_json,
    cohomology_table_to_json,
    dumps_json,
    grading_report_to_json,
    lie_algebra_from_json,
    lie_algebra_to_json,
    load_json,
    search_outcome_to_json,
    verdict_to_json,
)
from .kernel import backend_name
from .liealg import validate
from .scalars import past_digit_limit

__all__ = ["main", "run"]


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nilqp",
        description=(
            "Exact Chevalley-Eilenberg cohomology of nilpotent Lie algebras "
            "and quasi-projectivity checks for non-compact nilmanifolds."
        ),
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    p.add_argument(
        "--seedless",
        action="store_true",
        help="assert seedless deterministic output (always on; accepted "
        "for compatibility)",
    )
    p.add_argument("--version", action="version", version=f"nilqp {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate a Lie-algebra JSON file")
    sp.add_argument("file")

    sp = sub.add_parser("cohomology", help="Betti numbers and representatives")
    sp.add_argument("file")
    sp.add_argument("--bigrading", help="bigrading JSON file for a refined table")
    sp.add_argument(
        "--representatives", action="store_true", help="include cocycle representatives"
    )

    sp = sub.add_parser("check", help="quasi-projectivity necessary conditions")
    sp.add_argument("file")
    sp.add_argument("--m", type=int, default=1, help="Euclidean factor dimension")
    _add_bounds(sp)

    sp = sub.add_parser("bigrading-verify", help="verify a bigrading file")
    sp.add_argument("file")
    sp.add_argument("grading_file")
    sp.add_argument("--mode", choices=("strict", "lax"), default="strict")

    sp = sub.add_parser("bigrading-search", help="bounded bigrading search")
    sp.add_argument("file")
    _add_bounds(sp)

    sp = sub.add_parser("catalog", help="built-in algebra catalog")
    cat = sp.add_subparsers(dest="catalog_command", required=True)
    cat.add_parser("list", help="list catalog keys")
    show = cat.add_parser("show", help="print one catalog entry")
    show.add_argument("key")
    exp = cat.add_parser("export", help="export an entry with sidecar files")
    exp.add_argument("key")
    exp.add_argument("directory")

    sp = sub.add_parser("report", help="classification table for one dimension")
    sp.add_argument("--dim", type=int, required=True)
    _add_bounds(sp)

    sp = sub.add_parser("backend", help="print the elimination kernel's name (pure)")
    return p


def _add_bounds(sp) -> None:
    sp.add_argument(
        "--coeffs",
        default="-1,0,1",
        help="search coefficient set, comma separated (default: -1,0,1)",
    )
    sp.add_argument(
        "--depth",
        type=int,
        default=2,
        help="terms per search combination, 1 to 3 (default: 2)",
    )
    sp.add_argument(
        "--max-nodes", type=int, default=20000, help="search node budget"
    )


def _bounds_from_args(args):
    from .bigrading import SearchBounds

    texts = [c for c in str(args.coeffs).split(",") if c.strip() != ""]
    try:
        coeffs = tuple(map(int, texts))
    except ValueError:
        for c in map(str.strip, texts):
            if past_digit_limit(c):
                raise InputError(
                    f"--coeffs entry of {len(c)} characters is out of range: "
                    f"at most {sys.get_int_max_str_digits()} digits"
                )
        raise InputError(f"--coeffs must be integers, got {excerpt(str(args.coeffs))}")
    if not 1 <= args.depth <= 3:
        # The depth-first search combines at most three pool vectors.
        raise InputError(f"--depth must be 1, 2 or 3, got {args.depth}")
    if args.max_nodes < 1:
        raise InputError("--max-nodes must be >= 1")
    return SearchBounds(coefficients=coeffs, depth=args.depth, max_nodes=args.max_nodes)


def _load_algebra(path: str):
    return lie_algebra_from_json(load_json(path), path=path)


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        sys.stdout.write(dumps_json(payload))
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _reasons_text(verdict) -> list[str]:
    lines = []
    for r in verdict.reasons:
        details = ", ".join(f"{k}={v}" for k, v in sorted(r.witness.items()))
        lines.append(f"  {r.test}: {details}")
    return lines


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except InputError as exc:
        _emit_error(args, exc, kind="input")
        return 1
    except InternalError as exc:
        _emit_error(args, exc, kind="internal")
        return 2
    except OSError as exc:
        _emit_error(args, exc, kind="input")
        return 1
    except Exception as exc:
        _emit_error(args, exc, kind="internal")
        return 2


def _emit_error(args, exc, kind: str) -> None:
    if getattr(args, "format", "text") == "json":
        sys.stdout.write(
            dumps_json(
                {"error": {"kind": kind, "type": type(exc).__name__, "message": str(exc)}}
            )
        )
    else:
        sys.stderr.write(f"error ({type(exc).__name__}): {exc}\n")


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "validate":
        alg = _load_algebra(args.file)
        report = validate(alg)
        _emit(
            args,
            {
                "valid": True,
                "name": report.name,
                "dim": report.dim,
                "lattice_admissible": report.lattice_admissible,
                "has_real_structure": report.has_real_structure,
            },
            [
                f"{report.name}: valid (dim {report.dim}, "
                f"lattice admissible: {'yes' if report.lattice_admissible else 'no'})"
            ],
        )
        return 0

    if cmd == "cohomology":
        from .cohomology import betti_numbers, bigraded_cohomology

        alg = _load_algebra(args.file)
        if args.bigrading:
            g = bigrading_from_json(load_json(args.bigrading), path=args.bigrading)
            table = bigraded_cohomology(alg, g)
        else:
            table = betti_numbers(alg, representatives=args.representatives)
        payload = cohomology_table_to_json(table)
        payload["name"] = alg.name
        lines = [f"{alg.name}: betti {list(table.betti)}"]
        for (j, p, q, d) in table.by_bidegree or ():
            lines.append(f"  H^{j}[{p},{q}] = {d}")
        if table.representatives:
            for k in sorted(table.representatives):
                for vec in table.representatives[k]:
                    lines.append(
                        f"  rep H^{k}: [" + ", ".join(str(x) for x in vec) + "]"
                    )
        _emit(args, payload, lines)
        return 0

    if cmd == "check":
        from .checker import NilmanifoldSpec, check

        alg = _load_algebra(args.file)
        verdict = check(
            NilmanifoldSpec(algebra=alg, m=args.m), bounds=_bounds_from_args(args)
        )
        payload = verdict_to_json(verdict)
        payload["m"] = args.m
        lines = [f"{alg.name}: {verdict.status} (b1 = {verdict.b1}, m = {args.m})"]
        lines.extend(_reasons_text(verdict))
        _emit(args, payload, lines)
        return 0

    if cmd == "bigrading-verify":
        from .bigrading import verify_bigrading

        alg = _load_algebra(args.file)
        g = bigrading_from_json(load_json(args.grading_file), path=args.grading_file)
        report = verify_bigrading(alg, g, mode=args.mode)
        payload = grading_report_to_json(report)
        lines = [
            f"{alg.name}: {'valid' if report.valid else 'invalid'} "
            f"({report.shape} shape, conjugation {report.conjugation}, "
            f"mode {report.mode})"
        ]
        for f in report.failures:
            lines.append(f"  {f['check']}: {f['detail']}")
        _emit(args, payload, lines)
        return 0

    if cmd == "bigrading-search":
        from .bigrading import search_bigrading

        alg = _load_algebra(args.file)
        outcome = search_bigrading(alg, _bounds_from_args(args))
        payload = search_outcome_to_json(outcome)
        lines = [f"{alg.name}: {outcome.status}"]
        if outcome.reason:
            lines.append(f"  reason: {outcome.reason} {outcome.witness}")
        if outcome.bigrading:
            for c in outcome.bigrading.components:
                lines.append(
                    f"  component ({c.p},{c.q}): {len(c.rows)} generators"
                )
        _emit(args, payload, lines)
        return 0

    if cmd == "catalog":
        from .catalog import catalog_keys, export_entry, get

        if args.catalog_command == "list":
            keys = catalog_keys()
            _emit(args, {"keys": list(keys)}, list(keys))
            return 0
        if args.catalog_command == "show":
            entry = get(args.key)
            payload = {
                "key": entry.key,
                "provenance": entry.provenance,
                "algebra": lie_algebra_to_json(entry.algebra),
                "bigradings": len(entry.known_bigradings),
                "transformations": [t for t, _ in entry.transformations],
            }
            lines = [
                f"{entry.key}: dim {entry.algebra.dim} over {entry.algebra.field}",
                f"  provenance: {entry.provenance}",
                f"  stored bigradings: {len(entry.known_bigradings)}",
                f"  transformations: "
                + (", ".join(t for t, _ in entry.transformations) or "none"),
            ]
            _emit(args, payload, lines)
            return 0
        if args.catalog_command == "export":
            written = export_entry(args.key, args.directory)
            _emit(args, {"written": written}, written)
            return 0

    if cmd == "report":
        from .checker import CLASSIFICATION_DIMS, reproduce_classification

        if args.dim not in CLASSIFICATION_DIMS:
            raise InputError(
                f"--dim must be between {CLASSIFICATION_DIMS[0]} "
                f"and {CLASSIFICATION_DIMS[-1]}"
            )
        table = reproduce_classification(args.dim, bounds=_bounds_from_args(args))
        payload = {
            "dim": table.dim,
            "rows": [{"b1": r.b1, "keys": list(r.keys)} for r in table.rows],
            "obstructed": [
                {"key": k, "reason": reason} for k, reason in table.obstructed
            ],
            "passes_necessary_only": list(table.passes_only),
        }
        lines = [f"dimension {table.dim}"]
        for r in table.rows:
            lines.append(f"  b1 = {r.b1}: " + ", ".join(r.keys))
        for k, reason in table.obstructed:
            lines.append(f"  obstructed: {k} ({reason})")
        for k in table.passes_only:
            lines.append(f"  passes necessary conditions only: {k}")
        _emit(args, payload, lines)
        return 0

    if cmd == "backend":
        _emit(args, {"backend": backend_name()}, [backend_name()])
        return 0

    raise InternalError(f"unhandled command {cmd!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
