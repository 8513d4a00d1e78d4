from random import Random

import pytest

from jetsym.expr import MAX_DEPTH, MAX_EXPONENT, MAX_TERMS, ParseError, parse_poly, parse_scalar
from jetsym.jets import JetContext
from jetsym.poly import Poly, poly_to_str
from jetsym.rings import jet_var, u_var, x_var
from jetsym.scalars import GaussScalar, I

from helpers import random_poly


def ctx11():
    return JetContext.create(1, 2)


def test_parse_examples():
    ctx = JetContext.create(2, 2)
    t = ctx.table
    f = parse_poly("x1 + 3/2*u1", t)
    assert f == ctx.x(1) + ctx.u(1).scale(GaussScalar(3) / GaussScalar(2))

    g = parse_poly("p1_2^2 - i*x1*u2", t)
    p12 = ctx.jet(1, 2)
    assert g == p12 * p12 - (ctx.x(1) * ctx.u(2)).scale(I)

    assert parse_poly("0", t).is_zero()
    assert parse_poly("i^2", t) == ctx.const(-1)

    sq = parse_poly("(x1+u1)^2", t)
    assert sq == (ctx.x(1) + ctx.u(1)) ** 2


def test_exponent_cap():
    ctx = JetContext.create(1, 1)
    assert parse_poly(f"x1^{MAX_EXPONENT}", ctx.table) == ctx.x(1) ** MAX_EXPONENT
    for text in [f"x1^{MAX_EXPONENT + 1}", "(x1+u1)^99999", "x1^" + "9" * 5000]:
        with pytest.raises(ParseError) as err:
            parse_poly(text, ctx.table)
        assert err.value.offset == text.index("^") + 1
        assert "exceeds the limit" in str(err.value)


SUM6 = "(x1+x2+u1+u2+p1_1+p2_2)"


def test_expansion_budget():
    t = JetContext.create(2, 2).table
    assert len(parse_poly(f"{SUM6}^8", t).terms) == 1287
    assert len(parse_poly(f"{SUM6}^5*{SUM6}", t).terms) == 462
    for text, offset in [
        (f"{SUM6}^12", len(SUM6)),
        (f"{SUM6}^16", len(SUM6)),
        (f"{SUM6}^6*{SUM6}^6", len(SUM6) + 2),
    ]:
        with pytest.raises(ParseError) as err:
            parse_poly(text, t)
        assert err.value.offset == offset
        assert f"over the limit {MAX_TERMS}" in str(err.value)


def nested(depth: int, inner: str = "x1") -> str:
    return "(" * depth + inner + ")" * depth


def test_parse_error_positions():
    t = JetContext.create(1, 1).table
    for text, offset in [
        ("x1 + ", 5),
        ("x1 + y2", 5),
        ("(x1 + u1", 8),
        ("x1 $ u1", 3),
        ("1/0 + x1", 2),
        (nested(MAX_DEPTH + 1), MAX_DEPTH),
        ("u1*" + nested(MAX_DEPTH, nested(1, "x1+") + "+1"), 3 + MAX_DEPTH),
        (nested(5000), MAX_DEPTH),
    ]:
        with pytest.raises(ParseError) as err:
            parse_poly(text, t)
        assert err.value.offset == offset
    # the message of the last case
    assert str(err.value) == f"parentheses nest deeper than the limit {MAX_DEPTH} at offset {MAX_DEPTH}"
    assert parse_poly(nested(MAX_DEPTH), t) == parse_poly("x1", t)


def test_unary_minus_and_precedence():
    ctx = JetContext.create(1, 1)
    t = ctx.table
    assert parse_poly("-x1^2", t) == -(ctx.x(1) ** 2)
    assert parse_poly("2*x1 - -u1", t) == ctx.x(1).scale(GaussScalar(2)) + ctx.u(1)
    assert parse_poly("x1 - u1 - u1", t) == ctx.x(1) - ctx.u(1).scale(GaussScalar(2))
    # long runs are read by loops, not by one parser frame per operator
    assert parse_poly("-" * 3000 + "x1^2", t) == ctx.x(1) ** 2
    assert parse_poly("-" * 3001 + "x1^2", t) == -(ctx.x(1) ** 2)
    assert parse_poly("*".join(["x1", "2*u1"] * 1500), t) == (ctx.x(1) * ctx.u(1)) ** 1500 * ctx.const(2) ** 1500


def test_second_jet_names_round_trip():
    ctx = JetContext.create(2, 1)
    f = ctx.jet(1, 1, 2) * ctx.x(2) + ctx.jet(1, 2, 2)
    assert parse_poly(poly_to_str(f), ctx.table) == f


def test_scalar_parsing():
    assert parse_scalar("3/2-1/3*i") == GaussScalar(
        GaussScalar(3).re / GaussScalar(2).re, -GaussScalar(1).re / GaussScalar(3).re
    )
    assert parse_scalar("-i") == -I
    with pytest.raises(ValueError):
        parse_scalar("x1")


def test_round_trip_random():
    rng = Random(271)
    ctx = JetContext.create(2, 2)
    vids = [x_var(1), x_var(2), u_var(1), u_var(2), jet_var(1, (1,)), jet_var(2, (2,))]
    for _ in range(120):
        f = random_poly(rng, ctx.table, vids, max_terms=5, max_degree=4)
        assert parse_poly(poly_to_str(f), ctx.table) == f
    # one flat sum of 3000 terms in x1, x2, u1
    positions = sorted(ctx.table.index(v) for v in vids[:3])
    terms = {}
    for k in range(3000):
        exps = (k % 15, k // 15 % 15, k // 225)
        mono = tuple((p, e) for p, e in zip(positions, exps) if e)
        terms[mono] = GaussScalar(rng.randint(1, 99), rng.randint(-9, 9))
    f = Poly(ctx.table, terms)
    assert parse_poly(poly_to_str(f), ctx.table) == f
