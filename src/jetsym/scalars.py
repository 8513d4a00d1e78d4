"""Exact Gaussian-rational arithmetic.

A GaussScalar is a + b*i with a, b arbitrary-precision rationals
(``fractions.Fraction``).  All operations are exact; nothing here ever
rounds.  This is the coefficient field for every polynomial in the package.
"""

from __future__ import annotations

from fractions import Fraction

RationalLike = int | Fraction


class GaussScalar:
    """A Gaussian rational number, re + im*i, over exact Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        # Fraction keeps itself in lowest terms with positive denominator.
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "GaussScalar") -> "GaussScalar":
        return GaussScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussScalar") -> "GaussScalar":
        return GaussScalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussScalar":
        return GaussScalar(-self.re, -self.im)

    def __mul__(self, other: "GaussScalar") -> "GaussScalar":
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return GaussScalar(a * c)
        return GaussScalar(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "GaussScalar") -> "GaussScalar":
        c, d = other.re, other.im
        if not c and not d:
            raise ZeroDivisionError("division by zero GaussScalar")
        if not d:
            if not self.im:
                return GaussScalar(self.re / c)
            return GaussScalar(self.re / c, self.im / c)
        n = c * c + d * d
        a, b = self.re, self.im
        return GaussScalar((a * c + b * d) / n, (b * c - a * d) / n)

    def inverse(self) -> "GaussScalar":
        return ONE / self

    def conjugate(self) -> "GaussScalar":
        return GaussScalar(self.re, -self.im)

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
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    # -- formatting ------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussScalar({self.re!r}, {self.im!r})"


ZERO = GaussScalar(0)
ONE = GaussScalar(1)
I = GaussScalar(0, 1)


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_scalar(s: GaussScalar) -> str:
    """Canonical text form: "a/b", "c/d*i", or "a/b+c/d*i" (sign folded in).

    The imaginary unit alone prints as "i" / "-i".  The zero scalar prints
    as "0".  The output round-trips through the expression parser.
    """
    re, im = s.re, s.im
    if not im:
        return _frac_str(re)
    if im == 1:
        im_part = "i"
    elif im == -1:
        im_part = "-i"
    else:
        im_part = f"{_frac_str(im)}*i"
    if not re:
        return im_part
    joiner = "+" if im > 0 else ""
    return f"{_frac_str(re)}{joiner}{im_part}"
