"""nilqp: exact Chevalley-Eilenberg cohomology of nilpotent Lie algebras and
quasi-projectivity obstructions for the associated non-compact nilmanifolds.

All arithmetic is exact (rationals and Gaussian rationals); results are
deterministic.  The elimination loops run in one pure-Python kernel on
arbitrary-precision integers (see nilqp.kernel).
"""

from importlib import import_module

# The module that defines each public name.  A module is imported on the
# first read of a name it defines (PEP 562), so `import nilqp` compiles no
# other module and `catalog_keys()` compiles no search code.  Names are not
# cached here: the defining module stays the one place each is bound.
_HOME = {
    name: module
    for module, names in {
        "_version": ("__version__",),
        "catalog": ("CatalogEntry", "catalog_get", "catalog_keys", "export_entry"),
        "checker": (
            "NilmanifoldSpec", "Verdict", "check", "diagonal_h1_check", "reproduce_classification",
        ),
        "grading": ("Bigrading", "BigradingComponent"),
        "bigrading": (
            "FiltrationPair", "GradingReport", "SearchBounds", "SearchOutcome",
            "bigrading_from_filtrations", "filtrations_from_bigrading", "search_bigrading",
            "verify_bigrading",
        ),
        "cohomology": (
            "CohomologyTable", "betti_numbers", "bigraded_cohomology", "ce_differential",
            "exterior_basis", "top_class_bidegree",
        ),
        "exact": (
            "ExactMatrix", "Subspace", "conjugate_vector", "kernel_basis", "rref_rank",
            "subspace_sum_intersect",
        ),
        "kernel": ("backend_name",),
        "liealg": (
            "LieAlgebra", "LowerCentralSeries", "ValidationReport", "abelian",
            "abelian_split_transformation", "apply_basis_change", "center", "commutator_ideal",
            "complexify", "direct_sum", "lower_central_series", "strip_abelian_factor",
            "validate", "verify_isomorphism",
        ),
        "scalars": ("Gaussian", "Rational", "Scalar", "format_scalar", "parse_scalar"),
    }.items()
    for name in names
}
_RENAMED = {"catalog_get": "get"}
_SUBMODULES = (
    "_arith", "_record", "_version", "bigrading", "catalog", "checker", "cli", "cohomology",
    "dfs", "errors", "exact", "grading", "jsonio", "jspace", "kernel", "liealg", "pencil",
    "scalars", "twostep",
)

__all__ = [
    "Bigrading",
    "BigradingComponent",
    "CatalogEntry",
    "CohomologyTable",
    "ExactMatrix",
    "FiltrationPair",
    "Gaussian",
    "GradingReport",
    "LieAlgebra",
    "LowerCentralSeries",
    "NilmanifoldSpec",
    "Rational",
    "Scalar",
    "SearchBounds",
    "SearchOutcome",
    "Subspace",
    "ValidationReport",
    "Verdict",
    "__version__",
    "abelian",
    "abelian_split_transformation",
    "apply_basis_change",
    "backend_name",
    "betti_numbers",
    "bigraded_cohomology",
    "bigrading_from_filtrations",
    "catalog_get",
    "catalog_keys",
    "ce_differential",
    "center",
    "check",
    "commutator_ideal",
    "complexify",
    "conjugate_vector",
    "diagonal_h1_check",
    "direct_sum",
    "export_entry",
    "exterior_basis",
    "filtrations_from_bigrading",
    "format_scalar",
    "kernel_basis",
    "lower_central_series",
    "parse_scalar",
    "reproduce_classification",
    "rref_rank",
    "search_bigrading",
    "strip_abelian_factor",
    "subspace_sum_intersect",
    "top_class_bidegree",
    "validate",
    "verify_bigrading",
    "verify_isomorphism",
]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), _RENAMED.get(name, name))


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
