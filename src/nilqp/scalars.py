"""Exact scalars: rationals and Gaussian rationals.

Rational values are kept in lowest terms with a positive denominator, so two
equal scalars are structurally identical.  Gaussian values are pairs of
rationals (re + im*i); a Gaussian with zero imaginary part compares and hashes
equal to the corresponding Rational.  No floating point is used anywhere.

The text grammar (used verbatim in every JSON format) is::

    rational := ['+'|'-'] digits ['/' digits]
    gaussian := rational
              | [rational ('+'|'-')] (rational '*')? 'i'

Examples: "5", "-1/2", "2*i", "-1/2+3*i", "1-i", "0".
"""

from __future__ import annotations

import re
from math import gcd

from .errors import ParseError, excerpt

__all__ = [
    "Rational",
    "Gaussian",
    "Scalar",
    "Q0",
    "Q1",
    "I",
    "conj",
    "as_scalar",
    "parse_scalar",
    "format_scalar",
]


class Rational:
    """Arbitrary-precision rational number in lowest terms."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("rational with zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        elif type(num) is not int or type(den) is not int:
            num, den = int(num), int(den)  # a bool or int subclass: gcd took both as ints
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Rational is immutable")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            return Rational(self.num + other * self.den, self.den)
        if isinstance(other, Rational):
            return Rational(
                self.num * other.den + other.num * self.den, self.den * other.den
            )
        if isinstance(other, Gaussian):
            return Gaussian(self + other.re, other.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Rational(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, Rational):
            return Rational(
                self.num * other.den - other.num * self.den, self.den * other.den
            )
        if isinstance(other, (int, Gaussian)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Rational(self.num * other, self.den)
        if isinstance(other, Rational):
            return Rational(self.num * other.num, self.den * other.den)
        if isinstance(other, Gaussian):
            return Gaussian(self * other.re, self * other.im)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            return Rational(self.num, self.den * other)
        if isinstance(other, Rational):
            return Rational(self.num * other.den, self.den * other.num)
        if isinstance(other, Gaussian):
            return Gaussian(self, Q0) / other
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, int):
            return Rational(other * self.den, self.num)
        return NotImplemented

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.den == 1 and self.num == other
        if isinstance(other, Rational):
            return self.num == other.num and self.den == other.den
        if isinstance(other, Gaussian):
            return other.im.num == 0 and self == other.re
        return NotImplemented

    def __hash__(self):
        # An integral value equals its int, so it hashes as one.
        return hash(self.num) if self.den == 1 else hash((self.num, self.den))

    def __bool__(self):
        return self.num != 0

    def __repr__(self):
        return f"Rational({self.num}, {self.den})"

    def __str__(self):
        return format_scalar(self)


class Gaussian:
    """Gaussian rational re + im*i with exact rational components."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        _set_re(self, re if type(re) is Rational else _as_rational(re))
        _set_im(self, im if type(im) is Rational else _as_rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("Gaussian is immutable")

    def __add__(self, other):
        if isinstance(other, Gaussian):
            return Gaussian(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Rational)):  # no promotion to a Gaussian
            return Gaussian(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, Gaussian):
            return Gaussian(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Rational)):
            return Gaussian(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Gaussian):
            return Gaussian(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Rational)):  # two multiplies instead of four
            return Gaussian(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gaussian_or_none(other)
        if other is None:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian")
        return Gaussian(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = _as_gaussian_or_none(other)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        if isinstance(other, (int, Rational)):
            return self.im.num == 0 and self.re == other
        if isinstance(other, Gaussian):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im.num == 0:
            return hash(self.re)
        return hash((self.re.num, self.re.den, self.im.num, self.im.den))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"Gaussian({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


Scalar = Rational | Gaussian

# The slots' own setters: the constructors write through them, past the
# immutability guard of __setattr__, at less cost than object.__setattr__.
_set_num = Rational.num.__set__
_set_den = Rational.den.__set__
_set_re = Gaussian.re.__set__
_set_im = Gaussian.im.__set__


def as_scalar(x) -> Scalar:
    """``x`` as an exact scalar: ints become Rationals, other types are refused."""
    if isinstance(x, (Rational, Gaussian)):
        return x
    if isinstance(x, int):
        return Rational(x)
    raise TypeError(f"not a scalar: {x!r}")


def _as_rational(x) -> Rational:
    if isinstance(x, Rational):
        return x
    if isinstance(x, int):
        return Rational(x)
    raise TypeError(f"cannot build a Rational from {x!r}")


def _as_gaussian_or_none(x):
    if isinstance(x, Gaussian):
        return x
    if isinstance(x, (int, Rational)):
        return Gaussian(x, 0)
    return None


Q0 = Rational(0)
Q1 = Rational(1)
I = Gaussian(0, 1)


def conj(x: Scalar) -> Scalar:
    """Complex conjugate (identity on rationals)."""
    if isinstance(x, Gaussian):
        return Gaussian(x.re, -x.im)
    return x


# -- text form ------------------------------------------------------------

# Since 3.10.7 CPython refuses int <-> str conversions of more decimal digits
# than sys.get_int_max_str_digits() (4,300 by default).  Longer numbers are
# converted in halves, divide and conquer, down to pieces below the limit;
# the process-wide setting is left alone, and short numbers take int() and
# str() directly.


def _int_text(n: int) -> str:
    """``str(n)`` for an int of any length."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _int_text(-n)
    # 1233 / 4096 < log10(2), so n has at least 2 * half digits: hi > 0.
    half = (n.bit_length() * 1233 >> 12) // 2
    hi, lo = divmod(n, 10**half)
    return _int_text(hi) + _int_text(lo).zfill(half)


def _text_int(digits: str) -> int:
    """``int(digits)`` for a string of decimal digits of any length."""
    try:
        return int(digits)
    except ValueError:
        pass
    # Only the limit refuses a string of digits, and it is at least 640.
    half = len(digits) // 2
    return _text_int(digits[:-half]) * 10**half + _text_int(digits[-half:])


# A plain decimal integer: int() refuses such a text only for its length.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def past_digit_limit(text: str) -> bool:
    """Whether ``text`` is an integer that int() refuses only for its number of digits."""
    try:
        int(text)
    except ValueError:
        return _INTEGER.fullmatch(text) is not None
    return False


def _format_rational(x: Rational) -> str:
    if x.den == 1:
        return _int_text(x.num)
    return f"{_int_text(x.num)}/{_int_text(x.den)}"


def format_scalar(x: Scalar) -> str:
    """Canonical text form; parse_scalar round-trips it."""
    if isinstance(x, Rational):
        return _format_rational(x)
    if not x.im:
        return _format_rational(x.re)
    imag = f"{_format_rational(x.im)}*i"
    if not x.re:
        return imag
    if x.im.num > 0:
        return f"{_format_rational(x.re)}+{imag}"
    return f"{_format_rational(x.re)}{imag}"


def _parse_rational_token(tok: str, text: str, path: str | None) -> Rational:
    if "/" in tok:
        a, b = tok.split("/", 1)
        den = _text_int(b)
        if den == 0:
            raise ParseError(f"zero denominator in scalar {excerpt(text)}", path)
        return Rational(_text_int(a), den)
    return Rational(_text_int(tok))


_NUM = re.compile(r"\d+(?:/\d+)?")


def parse_scalar(text: str, path: str | None = None) -> Scalar:
    """Parse the scalar grammar; raise ParseError with position context."""
    if not isinstance(text, str):
        raise ParseError(f"scalar must be a string, got {type(text).__name__}", path)
    s = text.strip()
    if not s:
        raise ParseError("empty scalar", path)

    terms: list[tuple[Rational, bool]] = []  # (value, is_imaginary)
    pos = 0
    while pos < len(s):
        sign = 1
        if s[pos] in "+-":
            if s[pos] == "-":
                sign = -1
            pos += 1
            if pos >= len(s):
                raise ParseError(f"dangling sign in {excerpt(text)}", path)
        elif terms:
            raise ParseError(
                f"expected '+' or '-' at position {pos} in {excerpt(text)}", path
            )
        if s[pos] == "i":
            terms.append((Rational(sign), True))
            pos += 1
            continue
        m = _NUM.match(s, pos)
        if not m:
            raise ParseError(
                f"unexpected character {s[pos]!r} at position {pos} in {excerpt(text)}", path
            )
        value = _parse_rational_token(m.group(0), text, path) * sign
        pos = m.end()
        if pos < len(s) and s[pos] == "*":
            if pos + 1 >= len(s) or s[pos + 1] != "i":
                raise ParseError(
                    f"expected 'i' after '*' at position {pos + 1} in {excerpt(text)}", path
                )
            pos += 2
            terms.append((value, True))
        else:
            terms.append((value, False))
    if len(terms) > 2:
        raise ParseError(f"too many terms in scalar {excerpt(text)}", path)
    re_part = Q0
    im_part = Q0
    seen_re = seen_im = False
    for value, is_imag in terms:
        if is_imag:
            if seen_im:
                raise ParseError(f"two imaginary terms in scalar {excerpt(text)}", path)
            im_part, seen_im = value, True
        else:
            if seen_re:
                raise ParseError(f"two real terms in scalar {excerpt(text)}", path)
            re_part, seen_re = value, True
    if seen_im:
        return Gaussian(re_part, im_part)
    return re_part
