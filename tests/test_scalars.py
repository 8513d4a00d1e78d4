from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from jetsym.expr import parse_scalar
from jetsym.scalars import GaussScalar, I, ONE, ZERO, format_scalar

from helpers import FractionPairScalar, budget, random_scalar


def test_basic_arithmetic():
    a = GaussScalar(Fraction(1, 2), Fraction(3))
    b = GaussScalar(2, -1)
    assert a + b == GaussScalar(Fraction(5, 2), 2)
    assert a * b == GaussScalar(4, Fraction(11, 2))
    assert I * I == GaussScalar(-1)
    assert (a - a).is_zero()


def test_division_exact():
    a = GaussScalar(3, 4)
    b = GaussScalar(1, -2)
    q = a / b
    assert q * b == a
    assert (ONE / I) == -I
    with pytest.raises(ZeroDivisionError):
        a / ZERO


def test_powers():
    assert I ** 4 == ONE
    assert GaussScalar(2) ** -2 == GaussScalar(Fraction(1, 4))
    assert GaussScalar(0) ** 0 == ONE


def test_field_axioms_random():
    rng = Random(20240801)
    for _ in range(200):
        a, b, c = (random_scalar(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a / b) * b == a


def test_conjugate():
    rng = Random(7)
    for _ in range(100):
        a, b = random_scalar(rng), random_scalar(rng)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_format_and_parse_round_trip():
    cases = [
        ZERO,
        ONE,
        I,
        -I,
        GaussScalar(Fraction(3, 2)),
        GaussScalar(Fraction(-3, 2), Fraction(1, 3)),
        GaussScalar(0, Fraction(-5, 7)),
        GaussScalar(2, 1),
    ]
    for s in cases:
        assert parse_scalar(format_scalar(s)) == s
    rng = Random(99)
    for _ in range(100):
        s = random_scalar(rng, complex_prob=0.6)
        assert parse_scalar(format_scalar(s)) == s


def test_format_samples():
    assert format_scalar(GaussScalar(Fraction(3, 2))) == "3/2"
    assert format_scalar(GaussScalar(1, 1)) == "1+i"
    assert format_scalar(GaussScalar(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3*i"
    assert format_scalar(ZERO) == "0"


# -- differential test against the Fraction-pair reference ---------------------

# Small numerators and denominators above 1 make zero parts, cancellation and
# common denominators frequent; integral parts reach the constructor as int.
_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)).map(
    lambda q: q.numerator if q.denominator == 1 else q
)
_pairs = st.builds(lambda re, im: (GaussScalar(re, im), FractionPairScalar(re, im)), _rationals, _rationals)


def _assert_matches(s: GaussScalar, ref: FractionPairScalar) -> None:
    a, b, d = s._a, s._b, s._d
    assert d > 0 and gcd(a, b, d) == 1, (a, b, d)
    assert (s.re, s.im) == (ref.re, ref.im)
    assert type(s.re) is Fraction and type(s.im) is Fraction
    assert str(s) == format_scalar(s) == str(ref)
    assert s == GaussScalar(ref.re, ref.im) and hash(s) == hash(GaussScalar(ref.re, ref.im))


@settings(max_examples=budget(300), deadline=None)
@given(_pairs, _pairs, st.integers(-4, 4))
def test_matches_fraction_pair_reference(x, y, n):
    (s, ref), (t, tref) = x, y
    _assert_matches(s, ref)
    for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q):
        _assert_matches(op(s, t), op(ref, tref))
    _assert_matches(-s, -ref)
    _assert_matches(s.conjugate(), ref.conjugate())
    re, im = s.parts()
    _assert_matches(re, FractionPairScalar(ref.re))
    _assert_matches(im, FractionPairScalar(ref.im))
    if tref.is_zero():
        with pytest.raises(ZeroDivisionError):
            s / t
    else:
        _assert_matches(s / t, ref / tref)
        _assert_matches(t.inverse(), tref.inverse())
    if n >= 0 or not ref.is_zero():
        _assert_matches(s ** n, ref ** n)
    # Equal values built along different paths are equal and hash equal.
    assert (s == t) == (ref == tref)
    back = (s + t) - t
    assert back == s and hash(back) == hash(s)
    if not tref.is_zero():
        back = (s * t) / t
        assert back == s and hash(back) == hash(s)
