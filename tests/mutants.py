"""Mutants of the source that the tests must kill, and a script that tries each one.

Each `Mutant` names a module of ``src/nilqp``, the exact text it replaces
(which must occur once in that module), the new text, and the test ids
that must fail on it.  Run from the repository root:

    python tests/mutants.py

The script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory and first runs every listed test id there unmutated;
a failure stops it.  Then, for each mutant in turn, it applies the one
replacement to the copy, runs the mutant's test ids with ``pytest -x -q``,
and restores the module.  A mutant is "killed" when a test fails,
"SURVIVED" when all pass, and "STALE" when its text no longer occurs
exactly once.  The script exits 1 when any mutant survived or is stale.
When a change to the source moves a mutant's text, update the mutant
with it; when a test is weakened, the mutant that it killed survives.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    tests: tuple[str, ...]


_ADAPTED = (
    "tests/test_cohomology.py::test_adapted_table_matches_the_fraction_basis_change",
    "tests/test_cohomology.py::test_betti_of_unimodular_non_nilpotent_matches_oracle",
)
_JACOBI = (
    "tests/test_liealg.py::test_validate_agrees_with_jacobi_oracle",
    "tests/test_liealg.py::test_jacobi_violation_detected",
)
_IS_CENTRAL = ("tests/test_liealg.py::test_is_central_agrees_with_the_fraction_bracket",)
_PAIR_BRACKETS = ("tests/test_liealg.py::test_pair_brackets_equal_the_brackets_they_replace",)
_SWEEP = "tests/test_kernel.py::test_echelon_insertion_keeps_the_column_sweeps_pivots"
_TYPED_BRACKETS = "tests/test_liealg.py::test_brackets_read_as_freeze_brackets_makes_them_typed_by_field"
_CONTENT = ("tests/test_kernel.py::test_elimination_keeps_content_until_a_row_is_kept",)
_VERIFY = (
    "tests/test_bigrading.py::test_verify_reports_match_golden_digest",
    "tests/test_golden.py::test_reshuffled_and_moved_verification_reports_match_golden_digest",
    "tests/test_bigrading.py::test_verification_matches_a_reference_that_brackets_every_pair",
)
_OFFENDER = (
    "tests/test_golden.py::test_reshuffled_and_moved_bigraded_cohomology_match_golden_digest",
    "tests/test_golden.py::test_gradings_whose_brackets_leave_a_present_target_match_golden_digest",
    "tests/test_bigrading.py::test_bigraded_cohomology_names_the_recorded_first_offender",
)
_RECORDS = "tests/test_records.py::test_records_keep_their_text_and_equality_and_refuse_assignment"
_LAZY_CATALOG = "tests/test_package.py::test_the_catalog_builds_an_entry_on_its_first_get_and_only_its_parts"
_MATRIX_ROWS = "tests/test_exact.py::test_a_matrix_keeps_its_rows_once_in_lowest_terms"
_MATRIX_ORACLE = "tests/test_exact.py::test_matrix_api_matches_the_fraction_oracles"

MUTANTS = (
    # The adapted table's [R_b, R_a], a bracket of two vectors of C^1.
    Mutant(
        "adapted: C1 x C1 term dropped",
        "cohomology.py",
        "u = {free[s]: (1, 0)} if s < f else c1.rows[s - f][0]",
        "u = {free[s]: (1, 0)} if s < f else {}",
        _ADAPTED,
    ),
    Mutant(
        "adapted: C1 x C1 sign flipped",
        "cohomology.py",
        "u = {free[s]: (1, 0)} if s < f else c1.rows[s - f][0]",
        "u = {free[s]: (1, 0)} if s < f else "
        "{j: (-x, -y) for j, (x, y) in c1.rows[s - f][0].items()}",
        _ADAPTED,
    ),
    # Jacobi on `_ad` of each bracket.
    Mutant(
        "validate: Jacobi's (i, k) sign flipped",
        "liealg.py",
        "(1, (i, k), j)",
        "(-1, (i, k), j)",
        _JACOBI,
    ),
    Mutant(
        "validate: Jacobi residual decoded over the table's denominator once",
        "liealg.py",
        "kernel.decode(row, table.den**2, n, L.field)",
        "kernel.decode(row, table.den, n, L.field)",
        _JACOBI,
    ),
    Mutant(
        "validate: Jacobi tests real parts only",
        "liealg.py",
        "enumerate(parts[0] + parts[1])",
        "enumerate(parts[0])",
        _JACOBI,
    ),
    # The one ad(x) pass and the layer order.
    Mutant(
        "_ad: zero test on real parts only",
        "liealg.py",
        "if any(rr) or any(im[s])}",
        "if any(rr)}",
        _IS_CENTRAL,
    ),
    Mutant(
        "_ad: wrong sign in the imaginary sum",
        "liealg.py",
        "ri[k] += a * q + b * p",
        "ri[k] += a * q - b * p",
        _IS_CENTRAL,
    ),
    Mutant(
        "_ad: names center",
        "liealg.py",
        "    re: dict[int, list[int]] = {}\n",
        "    re: dict[int, list[int]] = {} if center else {}\n",
        ("tests/test_source.py::test_verification_names_no_derived_subspace",),
    ),
    Mutant(
        "cli: the catalog imported at module level",
        "cli.py",
        "from ._version import __version__\n",
        "from ._version import __version__\nfrom .catalog import get  # noqa: F401\n",
        ("tests/test_package.py::test_cli_commands_that_read_no_entry_load_no_catalog",),
    ),
    Mutant(
        "kernel: upward import",
        "kernel.py",
        '    """Name of the elimination kernel; there is only the pure-Python one."""\n',
        '    """Name of the elimination kernel; there is only the pure-Python one."""\n'
        "    from .liealg import LieAlgebra  # noqa: F401\n",
        ("tests/test_source.py::test_relative_imports_go_down_the_layers",),
    ),
    Mutant(
        "_pencil_structure: singular path returns no groups",
        "twostep.py",
        "    return groups, None\n",
        "    return [], None\n",
        ("tests/test_bigrading.py::test_singular_pencil_past_the_expanded_pfaffian",),
    ),
    # The Darboux pairs of a one-form frame.
    Mutant(
        "_darboux_pairs: y scaled without the denominator of x",
        "twostep.py",
        "kernel.zi_combine(((xd * fden, 0), y)), pair(x, y))",
        "kernel.zi_combine(((fden, 0), y)), pair(x, y))",
        ("tests/test_bigrading.py::test_darboux_pairs_every_vector_when_the_commutator_is_a_line",),
    ),
    Mutant(
        "_darboux_pairs: vectors left not cleared of x",
        "twostep.py",
        "((-a, 0), y), ((b, 0), x)),",
        "((-a, 0), y)),",
        ("tests/test_bigrading.py::test_darboux_pairs_every_vector_when_the_commutator_is_a_line",),
    ),
    Mutant(
        "bigrading: a name of twostep bound again",
        "bigrading.py",
        "from . import dfs, jspace, kernel, pencil, twostep\n",
        "from . import dfs, jspace, kernel, pencil, twostep\n"
        "from .twostep import _pencil_structure  # noqa: F401\n",
        ("tests/test_source.py::test_the_two_step_structure_has_one_home",),
    ),
    Mutant(
        "bigrading: a name of pencil bound again",
        "bigrading.py",
        "from . import dfs, jspace, kernel, pencil, twostep\n",
        "from . import dfs, jspace, kernel, pencil, twostep\n"
        "from .pencil import _krylov_span  # noqa: F401\n",
        ("tests/test_source.py::test_each_search_construction_has_one_home[pencil]",),
    ),
    # The CE assembly, conjugate pairs and the echelon's order.
    Mutant(
        "_assemble: Koszul parity without the factors below m",
        "cohomology.py",
        "odd = (bit - 1) ^ between",
        "odd = between",
        ("tests/test_cohomology.py::test_term_major_assembly_equals_the_source_major_loop",),
    ),
    Mutant(
        "_pair_brackets: conjugate-pair sign without sigma_t",
        "liealg.py",
        "formed[ms, mt], sign_s * sign_t",
        "formed[ms, mt], sign_s",
        _PAIR_BRACKETS,
    ),
    Mutant(
        "_pair_brackets: no negated mirrors",
        "liealg.py",
        "for sign in (1, -1):",
        "for sign in (1,):",
        _PAIR_BRACKETS,
    ),
    Mutant(
        "_echelon: unsorted pivots",
        "kernel.py",
        "return sorted(pivots.items())",
        "return list(pivots.items())",
        (_SWEEP,),
    ),
    Mutant(
        "rref_q: no primitive pass",
        "kernel.py",
        "_reduced([_primitive_q(row) for row in rows if row], _q_eliminate",
        "_reduced([row for row in rows if row], _q_eliminate",
        (f"{_SWEEP}[Q]",),
    ),
    Mutant(
        "rref_qi: no primitive pass",
        "kernel.py",
        "_reduced([_primitive_qi(row) for row in rows if row], _zi_eliminate",
        "_reduced([row for row in rows if row], _zi_eliminate",
        (f"{_SWEEP}[Qi]",),
    ),
    # One pass from a grading's generators to its solved brackets.
    Mutant(
        "_graded_solutions: components walked in reverse order",
        "cohomology.py",
        "    keys = list(generators)\n",
        "    keys = list(generators)[::-1]\n",
        _VERIFY,
    ),
    Mutant(
        "_graded_solutions: every bracket taken as solved",
        "cohomology.py",
        "if min(res) >= n:",
        "if True:",
        _VERIFY + _OFFENDER,
    ),
    Mutant(
        "_grading_table: offender taken as the first bad constant in table order",
        "cohomology.py",
        "k, i, j = min(bad)",
        "k, i, j = bad[0]",
        ("tests/test_cohomology.py::test_grading_not_compatible_names_the_least_offender",),
    ),
    Mutant(
        "verify_bigrading: a failure leaves bracket_compatible set",
        "bigrading.py",
        "bracket_ok = not misses",
        "bracket_ok = True",
        _VERIFY,
    ),
    # Content divided once per kept row, and the search's plane test.
    Mutant(
        "_echelon: no primitive for a pivot made by elimination",
        "kernel.py",
        "pivots[col] = row if row is first else primitive(row)",
        "pivots[col] = row",
        _CONTENT,
    ),
    Mutant(
        "_reduced: no primitive after back-substitution",
        "kernel.py",
        "            rows[k] = primitive(rows[k])\n",
        "            pass\n",
        _CONTENT,
    ),
    Mutant(
        "zi_insert: no primitive",
        "kernel.py",
        "echelon.append((min(row), _primitive_qi(row)))",
        "echelon.append((min(row), row))",
        _CONTENT,
    ),
    Mutant(
        "zi_plane: real parts only",
        "kernel.py",
        "if pr * yr - pi * yi != fr * xr - fi * xi or pr * yi + pi * yr != fr * xi + fi * xr:",
        "if pr * yr - pi * yi != fr * xr - fi * xi:",
        ("tests/test_bigrading.py::test_residuals_decide_as_the_reducer_does",),
    ),
    Mutant(
        "_dfs_u: one add per candidate",
        "dfs.py",
        "                add_empty(no_row)\n                second = ",
        "                second = ",
        ("tests/test_bigrading.py::test_dfs_adds_and_outcomes_match_the_recorded_ones",),
    ),
    Mutant(
        "_regular_pencil_u: completion spaces not cut by the commutant",
        "pencil.py",
        'kernel.null_space_within(space, commutant, "Qi")',
        "space",
        ("tests/test_bigrading.py::test_regular_pencil_outputs_match_golden_digest",),
    ),
    # The structure table as the one stored form of the constants.
    Mutant(
        "brackets: real constants over Q(i) decoded as Rational",
        "liealg.py",
        "len(ks), self.field)",
        'len(ks), "Qi" if any(y for _, y in pairs) else "Q")',
        (_TYPED_BRACKETS,),
    ),
    Mutant(
        "complexify: a fresh table encoded instead of shared rows",
        "liealg.py",
        'L.table._replace(field="Qi")',
        '_encoded(L.brackets, "Qi")',
        ("tests/test_liealg.py::test_each_algebra_holds_its_constants_once",),
    ),
    Mutant(
        "direct_sum: second summand's targets not shifted",
        "liealg.py",
        "[(k + n1, (x * t1.den, y * t1.den))",
        "[(k, (x * t1.den, y * t1.den))",
        (_TYPED_BRACKETS,),
    ),
    Mutant(
        "_lowest_table: constants kept over the denominator they came with",
        "liealg.py",
        "    g = gcd(d, *(x for row in rows.values() for _, pair in row for x in pair))\n",
        "    g = 1\n",
        ("tests/test_liealg.py::test_structure_table_holds_one_row_per_bracket",),
    ),
    # Equal values held once within each stored table and grading.
    Mutant(
        "_lowest_table: an entry shared under its pair without its k",
        "liealg.py",
        "kept.append(entries.setdefault(entry, entry))",
        "kept.append(entries.setdefault(entry[1], entry))",
        (
            _TYPED_BRACKETS,
            "tests/test_liealg.py::test_tables_hold_each_equal_pair_and_entry_once",
            "tests/test_cohomology.py::test_grading_tables_hold_each_equal_pair_and_entry_once",
        ),
    ),
    # A grading keeps its generators once, as exact Z[i] rows.
    Mutant(
        "BigradingComponent.generators: every component read over Q(i)",
        "grading.py",
        "        field = self.field\n",
        '        field = "Qi"\n',
        (
            "tests/test_bigrading.py::test_build_tags_each_component_and_reads_it_back_under_its_tag",
            "tests/test_bigrading.py::test_search_gradings_of_the_rational_catalog_keep_their_scalar_types",
        ),
    ),
    Mutant(
        "Bigrading: generators not put in lowest terms",
        "grading.py",
        "tuple(kernel.zi_lowest(*v) for v in vecs)",
        "tuple(vecs)",
        (
            "tests/test_bigrading.py::test_a_generator_is_stored_in_lowest_terms_and_reads_back_as_entered",
            "tests/test_bigrading.py::test_gradings_round_trip_through_json_to_equal_gradings_with_equal_hashes",
        ),
    ),
    # An algebra keeps its real structure once, as exact Z[i] rows.
    Mutant(
        "real_structure: the view decoded over Q",
        "liealg.py",
        "ExactMatrix._from_rows(self.real_rows, self.dim, self.field)",
        'ExactMatrix._from_rows(self.real_rows, self.dim, "Q")',
        ("tests/test_liealg.py::test_every_real_structure_over_qi_reads_gaussian",),
    ),
    Mutant(
        "direct_sum: second summand's real structure rows not shifted",
        "liealg.py",
        "tuple(({j + n1: e for j, e in r.items()}, d) for r, d in L2.real_rows)",
        "tuple(({j: e for j, e in r.items()}, d) for r, d in L2.real_rows)",
        ("tests/test_liealg.py::test_every_real_structure_over_qi_reads_gaussian",),
    ),
    Mutant(
        "_moved: moved real structure rows not put in lowest terms",
        "liealg.py",
        "tuple(kernel.zi_lowest(row, s_den * inv_den) for row in rows)",
        "tuple((row, s_den * inv_den) for row in rows)",
        (
            "tests/test_liealg.py::test_each_algebra_holds_its_constants_once",
            "tests/test_liealg.py::test_algebras_are_equal_and_hash_alike_exactly_when_their_constants_are",
        ),
    ),
    Mutant(
        "_real_rows: shape not checked where S is encoded",
        "liealg.py",
        "    if s.rows != n or s.cols != n:\n",
        "    if False:\n",
        (
            "tests/test_liealg.py::test_a_real_structure_of_the_wrong_shape_is_refused_where_it_is_encoded[False]",
        ),
    ),
    Mutant(
        "_real_rows: imaginary entries of S over Q not refused",
        "liealg.py",
        '    if field == "Q" and any(y for row, _ in s.exact_rows for _, y in row.values()):\n',
        "    if False:\n",
        (
            "tests/test_liealg.py::test_a_non_real_structure_over_q_is_refused_where_it_is_encoded[False]",
        ),
    ),
    Mutant(
        "lower_central_series: one C^0 whatever the dimension",
        "liealg.py",
        "@cache\ndef _whole_space(",
        "@lambda f: lambda n, kept=[]: kept[0] if kept else kept.append(f(n)) or kept[0]\n"
        "def _whole_space(",
        ("tests/test_liealg.py::test_series_starts_from_one_whole_space_per_dimension",),
    ),
    # A matrix keeps its entries once, as exact Z[i] rows.
    Mutant(
        "ExactMatrix: rows not put in lowest terms",
        "exact.py",
        "exact = tuple(kernel.zi_lowest(*v) for v in vectors)",
        "exact = tuple(vectors)",
        (_MATRIX_ROWS, _MATRIX_ORACLE),
    ),
    Mutant(
        "ExactMatrix: field tag read off the first row only",
        "exact.py",
        'field = "Qi" if any(Gaussian in map(type, row) for row in grid) else "Q"',
        'field = "Qi" if any(Gaussian in map(type, row) for row in grid[:1]) else "Q"',
        ("tests/test_exact.py::test_mixed_field_promotion", _MATRIX_ORACLE),
    ),
    Mutant(
        "ExactMatrix.matmul: operands swapped",
        "exact.py",
        "kernel.zi_matmul(a, b)",
        "kernel.zi_matmul(b, a)",
        (_MATRIX_ORACLE,),
    ),
    Mutant(
        "ExactMatrix.augment: right block not shifted",
        "exact.py",
        "({self.cols + j: e for j, e in row.items()}, den)",
        "({j: e for j, e in row.items()}, den)",
        (_MATRIX_ORACLE,),
    ),
    Mutant(
        "ExactMatrix.inverse: identity not scaled by the denominator",
        "exact.py",
        "[{j: (den, 0)} for j in range(self.rows)]",
        "[{j: (1, 0)} for j in range(self.rows)]",
        ("tests/test_exact.py::test_inverse_matches_the_fraction_oracle",),
    ),
    Mutant(
        "_apply: a Gaussian vector decoded by the matrix's field",
        "exact.py",
        '    field = "Qi" if Gaussian in map(type, vec) else field\n    return kernel.decode(step(',
        "    return kernel.decode(step(",
        ("tests/test_exact.py::test_matvec_result_has_one_scalar_type",),
    ),
    # Import only what a call uses.
    Mutant(
        "catalog: Bigrading taken from the search's module",
        "catalog.py",
        "from .grading import Bigrading\n",
        "from .bigrading import Bigrading\n",
        ("tests/test_package.py::test_the_catalog_loads_no_search_code",),
    ),
    Mutant(
        "__init__: checker imported eagerly",
        "__init__.py",
        "from importlib import import_module\n",
        "from importlib import import_module\n\nfrom . import checker  # noqa: F401\n",
        ("tests/test_package.py::test_the_catalog_loads_no_search_code",),
    ),
    # The catalog builds an entry on its first `get`.
    Mutant(
        "catalog_keys builds every entry",
        "catalog.py",
        "    return tuple(sorted(_BUILDERS))\n",
        "    return tuple(sorted(get(key).key for key in _BUILDERS))\n",
        (_LAZY_CATALOG,),
    ),
    Mutant(
        "catalog: an entry built again on each get",
        "catalog.py",
        "@lru_cache(maxsize=None)\ndef _built(",
        "def _built(",
        (_LAZY_CATALOG,),
    ),
    # Records without `dataclasses`.
    Mutant(
        "catalog: dataclasses imported again",
        "catalog.py",
        "from typing import NamedTuple\n",
        "from dataclasses import dataclass  # noqa: F401\nfrom typing import NamedTuple\n",
        (
            "tests/test_source.py::test_no_module_imports_dataclasses[catalog.py]",
            "tests/test_package.py::test_no_module_loads_dataclasses",
        ),
    ),
    Mutant(
        "BigradingComponent: field compared",
        "grading.py",
        "return self.p, self.q, self.rows, self.lengths\n",
        "return self.p, self.q, self.rows, self.lengths, self.field\n",
        (_RECORDS,),
    ),
    Mutant(
        "LieAlgebra: the facts memo shown by repr",
        "liealg.py",
        '_fields = ("name", "dim", "field", "basis_names", "table", "real_rows")',
        '_fields = ("name", "dim", "field", "basis_names", "table", "real_rows", "_facts")',
        (_RECORDS,),
    ),
    Mutant(
        "Subspace.intersect: cut by its own annihilator",
        "exact.py",
        "kernel.null_space([r for r, _ in other.rows], n, field)",
        "kernel.null_space([r for r, _ in self.rows], n, field)",
        ("tests/test_exact.py::test_sum_intersect_dimension_formula",),
    ),
    Mutant(
        "SearchBounds: no integer check",
        "bigrading.py",
        "            if type(value) is not int:\n",
        "            if False:\n",
        ("tests/test_bigrading.py::test_search_bounds_that_are_not_ints_are_refused",),
    ),
    Mutant(
        "SearchBounds: coefficients not checked",
        "bigrading.py",
        "if any(type(c) is not int for c in coefficients):",
        "if False:",
        ("tests/test_bigrading.py::test_search_bounds_that_are_not_ints_are_refused",),
    ),
    Mutant(
        "Rational.__hash__: an integral value hashed apart from its int",
        "scalars.py",
        "return hash(self.num) if self.den == 1 else hash((self.num, self.den))",
        "return hash((self.num, self.den))",
        (
            "tests/test_scalars.py::test_equal_numbers_hash_alike",
            "tests/test_scalars.py::test_an_integral_value_is_one_set_member_whatever_its_type",
        ),
    ),
)


def _pytest(workdir: Path, tests) -> bool:
    """Whether every test in ``tests`` passes on the package copy in ``workdir``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(workdir / "src")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(command, cwd=workdir, env=env, capture_output=True)
    return done.returncode == 0


def main() -> int:
    """Try every mutant; return 1 when one survived or is stale."""
    bad = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as directory:
        workdir = Path(directory)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, workdir / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", workdir)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        if not _pytest(workdir, tests):
            print("the listed tests fail on the unmutated source; no mutant was tried")
            return 1
        for m in MUTANTS:
            path = workdir / "src" / "nilqp" / m.module
            source = path.read_text()
            if source.count(m.old) != 1:
                bad += 1
                print(f"STALE     {m.name}: its text occurs {source.count(m.old)} times in {m.module}")
                continue
            path.write_text(source.replace(m.old, m.new))
            t0 = time.perf_counter()
            killed = not _pytest(workdir, m.tests)
            path.write_text(source)
            bad += not killed
            status = "killed  " if killed else "SURVIVED"
            print(f"{status}  {m.name} ({time.perf_counter() - t0:.1f} s)")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
