"""Exception hierarchy for nilqp.

Operational failures (bad input, unparseable files) derive from InputError and
map to CLI exit code 1.  Internal invariant violations derive from
InternalError and map to exit code 2.  Mathematical verdicts (obstructions,
failed verifications, unsuccessful searches) are never exceptions.
"""

from __future__ import annotations


class NilqpError(Exception):
    """Base class for all nilqp errors."""


class InputError(NilqpError):
    """Invalid input data (CLI exit code 1)."""


class InternalError(NilqpError):
    """Broken internal invariant (CLI exit code 2)."""


def excerpt(text: str) -> str:
    """``repr(text)`` for a message; past 40 characters, of its first 40 and its length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


class ParseError(InputError):
    """Malformed file content, with a JSON-path-like position."""

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class JacobiViolation(InputError):
    def __init__(self, i: int, j: int, k: int, residual):
        self.triple = (i, j, k)
        self.residual = residual
        super().__init__(
            f"Jacobi identity fails on basis triple ({i}, {j}, {k}); "
            f"residual {residual}"
        )


class InvalidRealStructure(InputError):
    pass


class NotInvolution(InputError):
    pass


class NotNilpotent(InputError):
    def __init__(self, stable_dim: int):
        self.stable_dim = stable_dim
        super().__init__(
            f"lower central series stabilizes at a nonzero subspace "
            f"(dim {stable_dim})"
        )


class AlreadyComplex(InputError):
    pass


class SingularTransformation(InputError):
    pass


class FieldMismatch(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class AmbientMismatch(InputError):
    pass


class DegreeOutOfRange(InputError):
    pass


class UnknownKey(InputError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"unknown catalog key {key!r}")


class MissingRealStructure(InputError):
    pass


class NotAFiltration(InputError):
    pass


class NotLatticeAdmissible(InputError):
    pass


class GradingNotCompatible(InputError):
    pass


class GradingNotDiagonal(InputError):
    pass


class TopClassMisplaced(InternalError):
    pass
