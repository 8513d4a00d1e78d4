"""Shared random generators (seeded, deterministic) and reference helpers for
the property tests."""

from __future__ import annotations

import os
from fractions import Fraction
from random import Random

from hypothesis import settings

from jetsym.poly import Poly
from jetsym.prolong import VectorField
from jetsym.rings import jet_var
from jetsym.scalars import GaussScalar


def budget(n: int) -> int:
    """A property test's example count: its own n, raised to the ci profile's
    count when HYPOTHESIS_PROFILE=ci selects that profile (see conftest.py)."""
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
        return max(n, settings.get_profile("ci").max_examples)
    return n


def random_scalar(rng: Random, span: int = 4, complex_prob: float = 0.3) -> GaussScalar:
    re = Fraction(rng.randint(-span, span), rng.randint(1, 3))
    if rng.random() < complex_prob:
        return GaussScalar(re, Fraction(rng.randint(-span, span), rng.randint(1, 3)))
    return GaussScalar(re)


class FractionPairScalar:
    """The Fraction-pair Gaussian rational that GaussScalar replaced: re + im*i
    with two ``Fraction`` parts.  Kept as the reference for the differential
    scalar tests."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __add__(self, other):
        return FractionPairScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionPairScalar(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return FractionPairScalar(-self.re, -self.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return FractionPairScalar(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        c, d = other.re, other.im
        if not c and not d:
            raise ZeroDivisionError("division by zero")
        n = c * c + d * d
        a, b = self.re, self.im
        return FractionPairScalar((a * c + b * d) / n, (b * c - a * d) / n)

    def inverse(self):
        return FractionPairScalar(1) / self

    def conjugate(self):
        return FractionPairScalar(self.re, -self.im)

    def __pow__(self, n: int):
        if n < 0:
            return (self ** (-n)).inverse()
        result = FractionPairScalar(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __str__(self) -> str:
        def frac(q: Fraction) -> str:
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

        re, im = self.re, self.im
        if not im:
            return frac(re)
        im_part = "i" if im == 1 else "-i" if im == -1 else f"{frac(im)}*i"
        if not re:
            return im_part
        return f"{frac(re)}{'+' if im > 0 else ''}{im_part}"


def random_poly(rng: Random, table, vids, max_terms: int = 4, max_degree: int = 3) -> Poly:
    positions = [table.index(v) for v in vids]
    acc = Poly.zero(table)
    for _ in range(rng.randint(0, max_terms)):
        counts: dict[int, int] = {}
        for _ in range(rng.randint(0, max_degree)):
            p = rng.choice(positions)
            counts[p] = counts.get(p, 0) + 1
        mono = tuple(sorted(counts.items()))
        coeff = random_scalar(rng)
        if coeff.is_zero():
            continue
        acc = acc + Poly(table, {mono: coeff})
    return acc


def random_point_field(rng: Random, ctx, max_terms: int = 3, max_degree: int = 2) -> VectorField:
    from jetsym.rings import u_var, x_var

    wvars = [x_var(i) for i in range(1, ctx.n + 1)] + [u_var(mu) for mu in range(1, ctx.m + 1)]
    theta = tuple(
        random_poly(rng, ctx.table, wvars, max_terms, max_degree) for _ in range(ctx.n)
    )
    eta = tuple(
        random_poly(rng, ctx.table, wvars, max_terms, max_degree) for _ in range(ctx.m)
    )
    return VectorField(ctx, theta, eta)


def second_jet_bindings(sys_) -> dict:
    """The substitution u^k_{ij} -> F^k_{ij} of a system, for references that
    restrict to the equation manifold by substituting."""
    return {jet_var(k, (i, j)): f for (k, i, j), f in sys_.entries.items()}
