"""Exact Gaussian-rational arithmetic.

A GaussScalar is (a + b*i)/d held as three Python ints in canonical form:
d > 0 and gcd(a, b, d) == 1, so equal scalars have equal triples.  The
operators work on the ints directly and skip the gcd when the denominator is
1, the common case; ``.re`` and ``.im`` give the parts as ``Fraction``.  All
operations are exact; nothing here ever rounds.  This is the coefficient
field for every polynomial in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

RationalLike = int | Fraction

_new = object.__new__


def _make(a: int, b: int, d: int) -> "GaussScalar":
    """The scalar (a + b*i)/d for d > 0, reduced to canonical form."""
    if d != 1:
        g = gcd(a, b, d)
        a, b, d = a // g, b // g, d // g
    s = _new(GaussScalar)
    s._a, s._b, s._d = a, b, d
    return s


class GaussScalar:
    """A Gaussian rational number (a + b*i)/d over exact ints."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        # Both parts are in lowest terms, so over the least common
        # denominator the triple is already canonical.
        q, s = re.denominator, im.denominator
        d = q // gcd(q, s) * s
        self._a, self._b, self._d = re.numerator * (d // q), im.numerator * (d // s), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def parts(self) -> tuple["GaussScalar", "GaussScalar"]:
        """The real part and the imaginary part, each as a real GaussScalar."""
        if not self._b:
            return self, ZERO
        return _make(self._a, 0, self._d), _make(self._b, 0, self._d)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_one(self) -> bool:
        return self._a == 1 and not self._b and self._d == 1

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "GaussScalar") -> "GaussScalar":
        d, e = self._d, other._d
        if d == e:
            return _make(self._a + other._a, self._b + other._b, d)
        return _make(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    def __sub__(self, other: "GaussScalar") -> "GaussScalar":
        d, e = self._d, other._d
        if d == e:
            return _make(self._a - other._a, self._b - other._b, d)
        return _make(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __neg__(self) -> "GaussScalar":
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other: "GaussScalar") -> "GaussScalar":
        a, b, c, e = self._a, self._b, other._a, other._b
        if b or e:
            a, b = a * c - b * e, a * e + b * c
        else:
            a *= c
        return _make(a, b, self._d * other._d)

    def __truediv__(self, other: "GaussScalar") -> "GaussScalar":
        # (a + b*i)/d / ((c + e*i)/f) = f*(a + b*i)*(c - e*i) / (d*(c^2 + e^2))
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        if e:
            a, b, n = a * c + b * e, b * c - a * e, c * c + e * e
        elif c:
            n = c
            if n < 0:
                a, b, n = -a, -b, -n
        else:
            raise ZeroDivisionError("division by zero GaussScalar")
        return _make(a * f, b * f, self._d * n)

    def inverse(self) -> "GaussScalar":
        return ONE / self

    def conjugate(self) -> "GaussScalar":
        return _make(self._a, -self._b, self._d)

    def __pow__(self, n: int) -> "GaussScalar":
        if n < 0:
            return (self ** (-n)).inverse()
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussScalar):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    # -- formatting ------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussScalar({self.re!r}, {self.im!r})"


ZERO = GaussScalar(0)
ONE = GaussScalar(1)
I = GaussScalar(0, 1)


def _ratio_str(n: int, d: int) -> str:
    """n/d in lowest terms, for d > 0."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def format_scalar(s: GaussScalar) -> str:
    """Canonical text form: "a/b", "c/d*i", or "a/b+c/d*i" (sign folded in).

    The imaginary unit alone prints as "i" / "-i".  The zero scalar prints
    as "0".  The output round-trips through the expression parser.
    """
    a, b, d = s._a, s._b, s._d
    if not b:
        return _ratio_str(a, d)
    if b == d:
        im_part = "i"
    elif b == -d:
        im_part = "-i"
    else:
        im_part = f"{_ratio_str(b, d)}*i"
    if not a:
        return im_part
    joiner = "+" if b > 0 else ""
    return f"{_ratio_str(a, d)}{joiner}{im_part}"
