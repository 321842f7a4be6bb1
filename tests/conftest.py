import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import settings

from nilqp.scalars import Gaussian, Rational

# The seeded input builders live in a module without pytest (see its
# docstring); the tests import them from here.
from seeded import (  # noqa: F401
    carried_grading,
    moved_parity_sum,
    random_gaussian_t,
    random_invertible_t,
    random_nilpotent,
    seeded_ternary_equations,
    ternary_from_solution,
)

# One fixed sequence of examples per test, and no example database: every
# run tries the same inputs, and no failing example is saved for the next.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_SCALAR_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)


class ScalarCalls(list):
    """The names of logged scalar arithmetic calls, e.g. "Rational.__add__".

    ``callers`` holds, call by call, the first frame outside scalars.py, as
    "file:line function": the code that asked for the arithmetic.
    """

    def __init__(self):
        super().__init__()
        self.callers = []


def count_scalar_arithmetic(monkeypatch) -> ScalarCalls:
    """Wrap every arithmetic method of `Rational` and `Gaussian` to log its calls.

    Returns the list each call appends its name to, e.g. "Rational.__add__",
    and its caller to ``callers``.  Constructing a scalar is not arithmetic,
    and is not logged.
    """
    calls = ScalarCalls()
    for cls in (Rational, Gaussian):
        for name in _SCALAR_ARITHMETIC:
            if name in vars(cls):

                def counted(*args, _method=vars(cls)[name], _name=f"{cls.__name__}.{name}"):
                    calls.append(_name)
                    calls.callers.append(_caller(sys._getframe(1)))
                    return _method(*args)

                monkeypatch.setattr(cls, name, counted)
    return calls


def held_once(table, where) -> int:
    """Assert that each distinct (k, pair) entry and each distinct pair of a
    `StructureTable` is one object; return how many entries repeat a value."""
    entries, pairs = {}, {}
    count = 0
    for row in table.rows.values():
        for entry in row:
            assert entries.setdefault(entry, entry) is entry, where
            assert pairs.setdefault(entry[1], entry[1]) is entry[1], where
            count += 1
    return count - len(entries)


def fraction_brackets(L) -> dict:
    """The constants of an algebra over Q as {(i, j): {k: Fraction}}, the oracles' input."""
    return {ij: {k: Fraction(c.num, c.den) for k, c in cs} for ij, cs in L.brackets}


def _caller(frame) -> str:
    """The first frame from ``frame`` out that is neither in scalars.py nor a wrapper."""
    while frame.f_code.co_filename.endswith("scalars.py") or frame.f_code.co_name == "counted":
        frame = frame.f_back
    return f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno} {frame.f_code.co_name}"


@pytest.fixture
def rng():
    return random.Random(20240611)
