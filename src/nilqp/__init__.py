"""nilqp: exact Chevalley-Eilenberg cohomology of nilpotent Lie algebras and
quasi-projectivity obstructions for the associated non-compact nilmanifolds.

All arithmetic is exact (rationals and Gaussian rationals); results are
deterministic.  The elimination loops run in one pure-Python kernel on
arbitrary-precision integers (see nilqp.kernel).
"""

from ._version import __version__
from .catalog import CatalogEntry, catalog_keys, export_entry, get as catalog_get
from .checker import (
    NilmanifoldSpec,
    Verdict,
    check,
    diagonal_h1_check,
    reproduce_classification,
)
from .bigrading import (
    Bigrading,
    BigradingComponent,
    FiltrationPair,
    GradingReport,
    SearchBounds,
    SearchOutcome,
    bigrading_from_filtrations,
    filtrations_from_bigrading,
    search_bigrading,
    verify_bigrading,
)
from .cohomology import (
    CohomologyTable,
    betti_numbers,
    bigraded_cohomology,
    ce_differential,
    exterior_basis,
    top_class_bidegree,
)
from .exact import (
    ExactMatrix,
    Subspace,
    conjugate_vector,
    kernel_basis,
    rref_rank,
    subspace_sum_intersect,
)
from .kernel import backend_name
from .liealg import (
    LieAlgebra,
    LowerCentralSeries,
    ValidationReport,
    abelian,
    abelian_split_transformation,
    apply_basis_change,
    center,
    commutator_ideal,
    complexify,
    direct_sum,
    lower_central_series,
    strip_abelian_factor,
    validate,
    verify_isomorphism,
)
from .scalars import Gaussian, Rational, Scalar, format_scalar, parse_scalar

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
