import ast
from pathlib import Path

import pytest

import nilqp

MODULES = sorted(Path(nilqp.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Names a module imports at module level but never reads and does not export."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and name not in exported
    ]


def test_the_check_sees_an_unused_import():
    source = "from math import gcd, lcm\nimport re\n__all__ = ['lcm']\nprint(gcd)\n"
    assert _unused_imports(source) == ["re (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def _has_all(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for node in tree.body
    )


def _checked(node, has_all: bool) -> bool:
    """Whether a module-level definition must be referenced.

    Private functions and classes must be, and so must the public functions
    of a module without ``__all__`` (``has_all`` false): such a module
    serves the package only.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("__"):
        return False
    return node.name.startswith("_") or (not has_all and isinstance(node, functions))


def _named(node) -> str | None:
    """The name that ``node`` reads as a name or an attribute, or imports; None otherwise."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level definitions (`_checked`) that no module names.

    ``sources`` maps a module's name to its text.  A definition counts as
    referenced when its name is read as a name or an attribute anywhere
    outside its own body, or imported by name.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defined = {
        (module, node.name): node
        for module, tree in trees.items()
        for node in tree.body
        if _checked(node, _has_all(tree))
    }
    inside = {
        id(child): key for key, node in defined.items() for child in ast.walk(node)
    }
    referenced = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = _named(node)
            if name is None:
                continue
            owner = inside.get(id(node))
            if owner is None or owner[1] != name:
                referenced.add(name)
    return sorted(f"{module}.{name}" for module, name in defined if name not in referenced)


def test_the_check_sees_an_unreferenced_private_definition():
    sources = {
        "a": "def _used():\n    pass\n\ndef _rec(n):\n    return _rec(n - 1)\n\n"
        "class _Gone:\n    pass\n\ndef __getattr__(name):\n    pass\n",
        "b": "from a import _used\n",
    }
    assert _unreferenced_definitions(sources) == ["a._Gone", "a._rec"]


def test_the_check_sees_an_unreferenced_public_function_only_without_all():
    # A module without ``__all__`` (like ``kernel``) exports nothing, so a
    # public function there that no module calls is dead code.
    sources = {
        "a": "def used():\n    pass\n\ndef gone():\n    pass\n\nclass Kept:\n    pass\n",
        "b": "__all__ = ['api']\nfrom a import used\n\ndef api():\n    return used()\n",
    }
    assert _unreferenced_definitions(sources) == ["a.gone"]


def test_every_private_definition_is_referenced():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert _unreferenced_definitions(sources) == []


# The kernel's per-field elimination: over Q it runs on the real parts of the
# Z[i] rows that every other module passes, and only the kernel knows it.
_PER_FIELD = frozenset(("rank_q", "rank_qi", "rref_q", "rref_qi", "q_exact", "_primitive_q"))


def _per_field_names(sources: dict[str, str]) -> list[str]:
    """Each place where a module other than ``kernel`` names a function of `_PER_FIELD`.

    ``sources`` maps a module's name to its text.  A name read, an
    attribute and an imported name all count.
    """
    found = []
    for module, source in sources.items():
        if module == "kernel":
            continue
        for node in ast.walk(ast.parse(source)):
            name = _named(node)
            if name in _PER_FIELD:
                found.append(f"{module}.{name} (line {node.lineno})")
    return sorted(found)


def test_the_check_sees_a_per_field_kernel_function_outside_the_kernel():
    sources = {
        "kernel": "def rank_q(rows, ncols):\n    return 0\n\n"
        "def rank(rows, ncols, field):\n    return rank_q(rows, ncols)\n",
        "a": "from . import kernel\nfrom .kernel import rref_qi\n"
        "kernel.rank_q([], 0)\nkernel.rank([], 0, 'Q')\nnote = 'rank_q in a string'\n",
    }
    assert _per_field_names(sources) == ["a.rank_q (line 3)", "a.rref_qi (line 2)"]


def test_only_the_kernel_names_its_per_field_functions():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert "kernel" in sources
    assert _per_field_names(sources) == []


def _imports(source: str, module: str) -> list[int]:
    """The lines that import the stdlib ``module``, at module level or inside a definition."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == module for name in names):
            lines.append(node.lineno)
    return lines


def test_the_check_sees_a_fractions_import_inside_a_function():
    source = (
        "import math, fractions\nfrom fractions import Fraction\n\n"
        "def f(a):\n    from fractions import Fraction as F\n    return F(a)\n\n"
        "note = 'fractions in a string'\nfrom . import fractions_like\n"
    )
    assert _imports(source, "fractions") == [1, 2, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_fractions(path):
    # The program's exact numbers are `Rational`, `Gaussian` and plain ints;
    # `fractions.Fraction` is the tests' independent oracle.
    assert _imports(path.read_text(), "fractions") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # Importing `dataclasses` pulls in `inspect`, and creating a dataclass
    # compiles its methods: every process would pay for both at start-up.
    # The records are NamedTuples, or `_record.Record` where a tuple cannot do.
    assert _imports(path.read_text(), "dataclasses") == []


# Verification must not lean on the eliminations it checks: a grading's
# (-1, -1) generators are tested for centrality on the structure table
# itself, never against the center or C^1 computed from it.
_DERIVED_SUBSPACES = frozenset(
    ("center", "_center_rows", "commutator_ideal", "lower_central_series")
)
_VERIFICATION = (
    ("bigrading", "verify_bigrading"),
    ("bigrading", "_conjugation"),
    ("cohomology", "_central_generators"),
    ("cohomology", "_graded_solutions"),
    ("cohomology", "_solved_table"),
    ("liealg", "_ad"),
    ("liealg", "_is_central"),
    ("liealg", "_pair_brackets"),
)


def _derived_subspace_names(sources: dict[str, str], functions) -> list[str]:
    """Each place where one of ``functions`` names an entry of `_DERIVED_SUBSPACES`.

    ``functions`` holds ``(module, name)`` pairs, and ``sources`` maps a
    module's name to its text; a function that is not defined at its
    module's top level is reported as missing.
    """
    found = []
    for module, name in functions:
        tree = ast.parse(sources[module])
        defs = [node for node in tree.body if getattr(node, "name", None) == name]
        if not defs:
            found.append(f"{module}.{name} missing")
        for node in (n for d in defs for n in ast.walk(d)):
            if _named(node) in _DERIVED_SUBSPACES:
                found.append(f"{module}.{name}: {_named(node)} (line {node.lineno})")
    return sorted(found)


def test_the_check_sees_a_derived_subspace_inside_verification():
    sources = {
        "a": "from .liealg import center\n\n"
        "def verify(L):\n    return center(L), L.commutator_ideal\n\n"
        "def other(L):\n    return center(L)\n",
    }
    assert _derived_subspace_names(sources, [("a", "verify"), ("a", "gone")]) == [
        "a.gone missing",
        "a.verify: center (line 4)",
        "a.verify: commutator_ideal (line 4)",
    ]


def test_verification_names_no_derived_subspace():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert _derived_subspace_names(sources, _VERIFICATION) == []


# The package's layers, lowest first: a module imports only from modules
# before it, at module level or inside a function.
_LAYERS = (
    "_version",
    "_record",
    "errors",
    "scalars",
    "_arith",
    "kernel",
    "exact",
    "grading",
    "liealg",
    "twostep",
    "cohomology",
    "bigrading",
    "catalog",
    "checker",
    "jsonio",
    "cli",
    "__init__",
    "__main__",
)
# catalog.export_entry writes with jsonio, which names checker's `Verdict`
# and so sits above catalog; the import stays inside the function, so that
# reading the catalog compiles no jsonio.
_UPWARD = frozenset((("catalog", "jsonio"),))


def _relative_imports(source: str, modules) -> list[tuple[str, int]]:
    """The package modules that ``source`` imports relatively, each with its line.

    ``from .m import x`` imports m, and ``from . import x`` imports module x
    when x is one of ``modules``, else the package's ``__init__``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        if node.module:
            found.append((node.module.split(".")[0], node.lineno))
        else:
            found.extend(
                (alias.name if alias.name in modules else "__init__", node.lineno)
                for alias in node.names
            )
    return found


def _upward_imports(sources: dict[str, str], layers, allowed) -> list[str]:
    """Each relative import in ``sources`` of a module not before its importer in ``layers``.

    ``sources`` maps a module's name to its text, and ``allowed`` holds the
    (importer, imported) pairs that may go up.
    """
    rank = {name: k for k, name in enumerate(layers)}
    found = []
    for module, source in sources.items():
        for target, line in _relative_imports(source, rank):
            if rank[target] >= rank[module] and (module, target) not in allowed:
                found.append(f"{module} -> {target} (line {line})")
    return sorted(found)


def test_the_check_sees_an_upward_import():
    sources = {
        "low": "def f():\n    from .high import g\n    return g()\n",
        "high": "from . import low\nfrom .low import f\n\ndef g():\n    from . import __version__\n",
        "top": "from . import high, version_name\n",
    }
    layers = ("low", "high", "top", "__init__")
    assert _upward_imports(sources, layers, frozenset()) == [
        "high -> __init__ (line 5)",
        "low -> high (line 2)",
        "top -> __init__ (line 1)",
    ]
    assert _upward_imports(sources, layers, {("low", "high"), ("high", "__init__")}) == [
        "top -> __init__ (line 1)"
    ]


def test_every_module_has_a_layer():
    assert sorted(path.stem for path in MODULES) == sorted(_LAYERS)


def test_relative_imports_go_down_the_layers():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert _upward_imports(sources, _LAYERS, _UPWARD) == []


def test_the_two_step_structure_has_one_home():
    # `twostep` reads only the kernel, the algebra and the number theory,
    # so `cohomology` may call it; the search reads it there and binds none
    # of its names.
    from nilqp import bigrading, twostep

    source = (Path(nilqp.__file__).parent / "twostep.py").read_text()
    assert {m for m, _ in _relative_imports(source, _LAYERS)} == {"kernel", "liealg", "_arith"}
    own = {
        name
        for name, value in vars(twostep).items()
        if getattr(value, "__module__", None) == twostep.__name__
    }
    assert own >= {"_TwoStepFrame", "_darboux_pairs", "_pencil_structure", "_kernel_groups"}
    assert not own & set(vars(bigrading))


# A grading keeps its generators once, as exact Z[i] rows
# (`grading.BigradingComponent.rows`), and an algebra its real structure
# (`liealg.LieAlgebra.real_rows`).  `generators` and `real_structure` decode
# them into scalars; only the JSON writer and each data model itself read
# them, so counts, kernels and conjugation read the stored rows.
_GENERATOR_READERS = frozenset(("grading", "jsonio"))
_REAL_STRUCTURE_READERS = frozenset(("liealg", "jsonio"))


def _attribute_reads(sources: dict[str, str], attr: str, readers) -> list[str]:
    """Each place where a module outside ``readers`` reads an attribute ``attr``."""
    found = []
    for module, source in sources.items():
        if module in readers:
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and node.attr == attr:
                found.append(f"{module} (line {node.lineno})")
    return sorted(found)


def test_the_check_sees_a_generators_read():
    sources = {
        "grading": "def f(c):\n    return c.generators\n",
        "jsonio": "def g(c):\n    return c.generators\n",
        "cli": "note = 'generators'\nlen(c.rows)\n\ndef h(c):\n    return len(c.generators)\n",
    }
    assert _attribute_reads(sources, "generators", _GENERATOR_READERS) == ["cli (line 5)"]


def test_only_the_data_model_and_the_writer_read_the_decoded_generators():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert _attribute_reads(sources, "generators", _GENERATOR_READERS) == []


def test_the_check_sees_a_real_structure_read():
    sources = {
        "liealg": "def f(L):\n    return L.real_structure\n",
        "jsonio": "def g(L):\n    return L.real_structure\n",
        "bigrading": "def h(L, real_structure):\n    if L.real_rows is None:\n"
        "        return real_structure.rows\n    return L.real_structure is None\n",
        "catalog": "x = build(real_structure=s)\nok = report.has_real_structure\n",
    }
    assert _attribute_reads(sources, "real_structure", _REAL_STRUCTURE_READERS) == [
        "bigrading (line 4)"
    ]


def test_only_the_algebra_and_the_writer_read_the_decoded_real_structure():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert _attribute_reads(sources, "real_structure", _REAL_STRUCTURE_READERS) == []


# A matrix keeps its entries once, as exact Z[i] rows
# (`exact.ExactMatrix.exact_rows`), and code hands those rows over: none
# encodes a matrix's decoded entries again (``kernel.zi_rows(m.entries)``)
# or decodes rows only to build a matrix of them
# (``ExactMatrix([kernel.decode(...) ...])``).


def _matrix_round_trips(sources: dict[str, str]) -> list[str]:
    """Each `zi_rows` call on an ``.entries`` and each `ExactMatrix` call on a `decode`."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            args = node.args + [k.value for k in node.keywords]
            inside = [n for arg in args for n in ast.walk(arg)]
            name = _named(node.func)
            if name == "zi_rows" and any(
                isinstance(n, ast.Attribute) and n.attr == "entries" for n in inside
            ):
                found.append(f"{module}.zi_rows (line {node.lineno})")
            if name == "ExactMatrix" and any(
                isinstance(n, ast.Call) and _named(n.func) == "decode" for n in inside
            ):
                found.append(f"{module}.ExactMatrix (line {node.lineno})")
    return sorted(found)


def test_the_check_sees_a_matrix_round_trip():
    sources = {
        "a": "rows, den = kernel.zi_rows(s.entries)\nrows = zi_rows([v])\n",
        "b": "m = ExactMatrix([kernel.decode(*v, n, f) for v in rows], cols=n)\n"
        "e = ExactMatrix(entries)\nx = ExactMatrix._from_rows(rows, n, f)\n",
        "c": "def f(entries):\n    return kernel.zi_rows(entries), m.entries\n",
    }
    assert _matrix_round_trips(sources) == ["a.zi_rows (line 1)", "b.ExactMatrix (line 1)"]


def test_no_module_round_trips_a_matrix_through_scalars():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert _matrix_round_trips(sources) == []
