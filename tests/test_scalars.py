import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilqp.errors import ParseError
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


def test_lowest_terms_and_positive_denominator():
    x = Rational(6, -4)
    assert (x.num, x.den) == (-3, 2)
    assert Rational(0, 7) == Rational(0)
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)


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


def test_canonical_format():
    assert format_scalar(Rational(-3, 2)) == "-3/2"
    assert format_scalar(Gaussian(0, Rational(1, 2))) == "1/2*i"
    assert format_scalar(Gaussian(Rational(-1, 2), 3)) == "-1/2+3*i"
    assert format_scalar(Gaussian(2, -1)) == "2-1*i"
    assert format_scalar(Gaussian(0, 0)) == "0"


@pytest.mark.parametrize("bad", [0.5, "1/2"])
def test_as_scalar_rejects_floats_and_strings(bad):
    with pytest.raises(TypeError, match="not a scalar"):
        as_scalar(bad)


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
