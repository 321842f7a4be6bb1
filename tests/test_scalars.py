import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilqp.errors import ParseError
from nilqp.exact import ExactMatrix, Subspace, conjugate_vector
from nilqp.grading import Bigrading
from nilqp.liealg import LieAlgebra
from nilqp.scalars import (
    Gaussian,
    Rational,
    as_scalar,
    conj,
    format_scalar,
    parse_scalar,
)

rationals = st.builds(
    Rational,
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
)
gaussians = st.builds(Gaussian, rationals, rationals)
scalars = st.one_of(rationals, gaussians)

_H3 = LieAlgebra.from_brackets("h3", 3, {(0, 1): {2: 1}})

# Each public entry point at which entered scalars reach the encoder
# (`kernel.zi_rows`), as a function of one vector of length 3 whose first
# entry is not zero.  All but `contains` give back scalars.
ENTRY_POINTS = {
    "ExactMatrix": lambda v: ExactMatrix([v]).entries[0],
    "matvec": lambda v: ExactMatrix.identity(3).matvec(v),
    "Subspace.from_spanning": lambda v: Subspace.from_spanning([v], 3).vectors()[0],
    "contains": lambda v: Subspace.from_spanning([(1, 0, 2)], 3).contains(v),
    "conjugate_vector": lambda v: conjugate_vector(v, ExactMatrix.identity(3)),
    "LieAlgebra.bracket": lambda v: _H3.bracket(v, (0, 1, 0)),
    "conj_vector": lambda v: _H3.conj_vector(v),
    "Bigrading.build": lambda v: Bigrading.build([(-1, -1, [v])]).components[0].generators[0],
}


def test_lowest_terms_and_positive_denominator():
    x = Rational(6, -4)
    assert (x.num, x.den) == (-3, 2)
    assert Rational(0, 7) == Rational(0)
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)


# Small values, so that equal pairs across the three types are drawn often.
_small_ints = st.integers(min_value=-3, max_value=3)
_small_rationals = st.builds(Rational, _small_ints, st.integers(min_value=1, max_value=2))
_small_numbers = st.one_of(
    _small_ints,
    _small_rationals,
    st.builds(Gaussian, _small_rationals, st.one_of(st.just(0), _small_rationals)),
)


@settings(max_examples=300)
@given(_small_numbers, _small_numbers)
def test_equal_numbers_hash_alike(x, y):
    if x == y:
        assert hash(x) == hash(y)


def test_an_integral_value_is_one_set_member_whatever_its_type():
    assert len({5, Rational(5), Gaussian(5, 0), Gaussian(Rational(10, 2), Rational(0))}) == 1
    assert len({-1, Rational(-1), Rational(1, 2), Gaussian(Rational(1, 2), 0)}) == 2


def test_gaussian_equals_rational_when_imaginary_vanishes():
    assert Gaussian(Rational(1, 2), 0) == Rational(1, 2)
    assert Rational(1, 2) == Gaussian(Rational(1, 2), 0)
    assert hash(Gaussian(Rational(1, 2), 0)) == hash(Rational(1, 2))
    assert Gaussian(1, 1) != Rational(1)


def test_mixed_arithmetic_promotes():
    x = Rational(1, 2) + Gaussian(0, 1)
    assert isinstance(x, Gaussian)
    assert x == Gaussian(Rational(1, 2), 1)
    assert Rational(2) * Gaussian(1, 1) == Gaussian(2, 2)
    assert 1 - Gaussian(0, 1) == Gaussian(1, -1)


def test_division():
    assert Rational(1) / Rational(3) == Rational(1, 3)
    i = Gaussian(0, 1)
    assert (1 + i) / (1 - i) == i
    assert i * i == Rational(-1)
    with pytest.raises(ZeroDivisionError):
        (1 + i) / Gaussian(0, 0)


@settings(max_examples=200)
@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=200)
@given(scalars)
def test_format_parse_roundtrip(x):
    assert parse_scalar(format_scalar(x)) == x


@settings(max_examples=100)
@given(scalars, scalars)
def test_conj_is_multiplicative(a, b):
    assert conj(a * b) == conj(a) * conj(b)
    assert conj(conj(a)) == a


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", Rational(0)),
        ("5", Rational(5)),
        ("-1/2", Rational(-1, 2)),
        ("+3/6", Rational(1, 2)),
        ("2*i", Gaussian(0, 2)),
        ("-1/2+3*i", Gaussian(Rational(-1, 2), 3)),
        ("-1/2-3*i", Gaussian(Rational(-1, 2), -3)),
        ("i", Gaussian(0, 1)),
        ("-i", Gaussian(0, -1)),
        ("1-i", Gaussian(1, -1)),
        ("3*i+1/2", Gaussian(Rational(1, 2), 3)),
    ],
)
def test_parse_grammar(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize(
    "text",
    ["", "x", "1/0", "1+2", "i+i", "1++2*i", "2i", "1*j", "1/2/3", "1 2"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


def test_parse_error_carries_path():
    with pytest.raises(ParseError) as exc:
        parse_scalar("3x", path="brackets[0].coeffs['2']")
    assert "brackets[0].coeffs['2']" in str(exc.value)


# A message quotes at most the first 40 characters of the scalar and its
# length (`errors.excerpt`); a scalar of 40 characters or fewer is quoted whole.
_SHORT_ERRORS = [
    ("1/0", "zero denominator in scalar '1/0'"),
    ("1x", "expected '+' or '-' at position 1 in '1x'"),
    ("1+", "dangling sign in '1+'"),
    ("1+2+3", "too many terms in scalar '1+2+3'"),
    ("1*j", "expected 'i' after '*' at position 2 in '1*j'"),
    ("#", "unexpected character '#' at position 0 in '#'"),
    ("2*i+3*i", "two imaginary terms in scalar '2*i+3*i'"),
    ("1/" + "0" * 38, f"zero denominator in scalar {'1/' + '0' * 38!r}"),
]
_LONG_ERRORS = [
    ("1/" + "0" * 5001, f"zero denominator in scalar {'1/' + '0' * 38!r}... (5003 characters)"),
    (
        "1" * 5000 + "x",
        f"expected '+' or '-' at position 5000 in {'1' * 40!r}... (5001 characters)",
    ),
    ("1+2+3" + "4" * 5000, f"too many terms in scalar {'1+2+3' + '4' * 35!r}... (5005 characters)"),
]


@pytest.mark.parametrize(
    "text, message",
    [pytest.param(*case, id=f"short-{i}") for i, case in enumerate(_SHORT_ERRORS)]
    + [pytest.param(*case, id=f"long-{i}") for i, case in enumerate(_LONG_ERRORS)],
)
def test_parse_error_quotes_an_excerpt_of_long_scalars(text, message):
    with pytest.raises(ParseError) as exc:
        parse_scalar(text, path="p")
    assert str(exc.value) == f"p: {message}"
    assert len(str(exc.value)) < 120


def test_canonical_format():
    assert format_scalar(Rational(-3, 2)) == "-3/2"
    assert format_scalar(Gaussian(0, Rational(1, 2))) == "1/2*i"
    assert format_scalar(Gaussian(Rational(-1, 2), 3)) == "-1/2+3*i"
    assert format_scalar(Gaussian(2, -1)) == "2-1*i"
    assert format_scalar(Gaussian(0, 0)) == "0"


def test_booleans_become_plain_int_rationals():
    # A bool numerator used to be kept, and printed as "True".
    for x in (as_scalar(True), Rational(True), Rational(True, True), Gaussian(False, True).im):
        assert type(x.num) is int and type(x.den) is int and x == 1
    assert format_scalar(as_scalar(True)) == "1" and format_scalar(as_scalar(False)) == "0"
    assert format_scalar(Gaussian(False, True)) == "1*i"
    m = ExactMatrix([[True, False], [False, True]])
    assert m == ExactMatrix.identity(2)
    assert [format_scalar(x) for row in m.entries for x in row] == ["1", "0", "0", "1"]
    assert all(type(x.num) is int for row in m.entries for x in row)
    # Every entry point reads ints and bools as the Rationals they equal.
    for name, entry in ENTRY_POINTS.items():
        want = entry((Rational(1), Rational(0), Rational(2)))
        for v in ((True, False, 2), (1, 0, 2), (True, Rational(0), 2)):
            got = entry(v)
            assert got == want, (name, v)
            if name != "contains":
                assert all(type(x) is Rational and type(x.num) is int for x in got), (name, v)


@pytest.mark.parametrize("bad", [0.5, "1/2", None])
def test_as_scalar_rejects_floats_and_strings(bad):
    with pytest.raises(TypeError, match="not a scalar"):
        as_scalar(bad)
    # Every entry point refuses it with `as_scalar`'s error.
    for name, entry in ENTRY_POINTS.items():
        with pytest.raises(TypeError, match="not a scalar"):
            entry((1, bad, 0))
            pytest.fail(f"{name} accepted {bad!r}")


@pytest.mark.parametrize("name", sorted(set(ENTRY_POINTS) - {"contains"}))
def test_an_entry_point_reads_qi_exactly_when_an_entry_is_gaussian(name):
    # Gaussian(1) is real, yet it puts the vector over Q(i).
    for v, want in (((Gaussian(1), 0, 2), Gaussian), ((1, Rational(0), Rational(1, 2)), Rational)):
        assert {type(x) for x in ENTRY_POINTS[name](v)} == {want}, v


def _value(digits: str) -> int:
    """The value of a string of decimal digits, read 50 digits at a time."""
    n = 0
    for k in range(0, len(digits), 50):
        chunk = digits[k : k + 50]
        n = n * 10 ** len(chunk) + int(chunk)
    return n


def test_scalars_past_the_interpreters_digit_limit_keep_every_digit():
    # Since 3.10.7 CPython refuses int <-> str conversions of more than
    # 4,300 digits by default; format_scalar and parse_scalar convert longer
    # numbers exactly, on either side of the limit.
    rng = random.Random(12)
    den = 10**5000
    for length in (4299, 4300, 4301, 5001, 12345):
        digits = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=length - 1))
        x = parse_scalar(digits)
        assert x == Rational(_value(digits))
        assert format_scalar(x) == digits
        y = parse_scalar(f"-{digits}/1{'0' * 5000}")
        assert y == Rational(-_value(digits), den)
        assert parse_scalar(format_scalar(y)) == y
        z = Gaussian(y, x)
        assert format_scalar(z) == f"{format_scalar(y)}+{digits}*i"
        assert parse_scalar(format_scalar(z)) == z
    assert parse_scalar("0" * 5000 + "12") == Rational(12)
    assert format_scalar(Rational(-(10**6000) - 7)) == "-1" + "0" * 5999 + "7"
