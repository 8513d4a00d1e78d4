from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from jetsym.expr import parse_poly
from jetsym.jets import JetContext
from jetsym.poly import Poly, _add_into, mono_sort_key, mono_str, rekey, substitute_all, translate
from jetsym.rings import AUX, VarTable, jet_var, u_var, x_var
from jetsym.scalars import GaussScalar, I, ONE, ZERO

from helpers import (
    budget,
    first_difference,
    random_point,
    random_poly,
    random_scalar,
    reference_convert,
    reference_monomial_str,
    reference_sub,
    reference_substitute,
)


def make_ctx():
    return JetContext.create(2, 2)


def all_vids(ctx):
    return [x_var(1), x_var(2), u_var(1), u_var(2), jet_var(1, (1,)), jet_var(2, (2,))]


def test_ring_axioms_random():
    ctx = make_ctx()
    vids = all_vids(ctx)
    rng = Random(12345)
    for _ in range(120):
        f = random_poly(rng, ctx.table, vids)
        g = random_poly(rng, ctx.table, vids)
        h = random_poly(rng, ctx.table, vids)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f - f).is_zero()


def test_differentiate_power_rule():
    ctx = make_ctx()
    t = ctx.table
    x1, u1 = ctx.x(1), ctx.u(1)
    f = x1 * x1 * u1
    assert f.differentiate(x_var(1)) == x1 * u1 * GaussScalar(2)
    assert f.differentiate(u_var(1)) == x1 * x1
    p = ctx.jet(1, 2)
    g = p * p + x1
    assert g.differentiate(jet_var(1, (2,))) == p.scale(GaussScalar(2))


def test_differentiate_unknown_variable():
    ctx = make_ctx()
    with pytest.raises(KeyError):
        ctx.x(1).differentiate(x_var(7))


def test_leibniz_random():
    ctx = make_ctx()
    vids = all_vids(ctx)
    rng = Random(777)
    for _ in range(120):
        f = random_poly(rng, ctx.table, vids)
        g = random_poly(rng, ctx.table, vids)
        v = rng.choice(vids)
        left = (f * g).differentiate(v)
        right = f.differentiate(v) * g + f * g.differentiate(v)
        assert left == right


def test_substitute_examples():
    ctx = make_ctx()
    t = ctx.table
    x1, u1 = ctx.x(1), ctx.u(1)
    f = x1 + u1
    assert f.substitute({x_var(1): GaussScalar(0)}) == u1

    p = ctx.jet(1, 1)
    assert (p * p).substitute({jet_var(1, (1,)): u1}) == u1 * u1

    g = x1 * x1
    shifted = g.substitute({x_var(1): x1 + ctx.const(1)})
    assert shifted == x1 * x1 + x1.scale(GaussScalar(2)) + ctx.const(1)


def test_substitute_is_simultaneous():
    ctx = make_ctx()
    x1, x2 = ctx.x(1), ctx.x(2)
    f = x1 * x2
    swapped = f.substitute({x_var(1): x2, x_var(2): x1})
    assert swapped == f


def test_truncation_multiplication():
    ctx = make_ctx()
    x1 = ctx.x(1)
    f = (ctx.const(1) + x1).truncate(2)
    g = f * f  # (1+x)^2 truncated at 2 keeps all terms
    assert g.bound == 2
    assert g == ctx.const(1) + x1.scale(GaussScalar(2)) + x1 * x1
    h = g * f
    assert h.bound == 2
    # the cubic term is above the bound and must be gone
    assert all(sum(e for _, e in mono) <= 2 for mono in h.terms)


def test_sum_drops_terms_above_the_smaller_bound():
    ctx = make_ctx()
    x1 = ctx.x(1)
    high = (x1 ** 11 + x1).truncate(12)
    low = (ctx.const(1) + x1 ** 10).truncate(10)
    for total in (high + low, low + high):
        assert total.bound == 10
        assert total == ctx.const(1) + x1 + x1 ** 10
        assert all(sum(e for _, e in mono) <= 10 for mono in total.terms)


def test_substitute_drops_unreplaced_terms_above_a_lowered_bound():
    ctx = make_ctx()
    x1, x2 = ctx.x(1), ctx.x(2)
    out = (x2 ** 5 + x1).substitute({x_var(1): (x1 * x1).truncate(3)})
    assert out.bound == 3
    assert out == x1 * x1


# -- bucketed product against the naive one ---------------------------------------

NVARS = 4


def naive_product(f, g):
    """Form every term pair on dense exponent vectors, then drop the products
    above the smaller bound."""
    w = f.table.weights
    bound = min((b for b in (f.bound, g.bound) if b is not None), default=None)
    dense = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            exps = [0] * NVARS
            for p, e in m1 + m2:
                exps[p] += e
            key = tuple(exps)
            dense[key] = dense.get(key, ZERO) + c1 * c2
    out = {}
    for exps, c in dense.items():
        if c.is_zero() or (bound is not None and sum(e * wp for e, wp in zip(exps, w)) > bound):
            continue
        out[tuple((p, e) for p, e in enumerate(exps) if e)] = c
    return out, bound


monomials = st.lists(st.integers(0, 3), min_size=NVARS, max_size=NVARS).map(
    lambda exps: tuple((p, e) for p, e in enumerate(exps) if e)
)
coefficients = st.builds(
    lambda a, b, c: GaussScalar(Fraction(a, b), c),
    st.integers(-3, 3),
    st.integers(1, 2),
    st.sampled_from([0, 0, 1]),
).filter(lambda c: not c.is_zero())
bounds = st.one_of(st.none(), st.integers(0, 10))


@settings(max_examples=budget(300), deadline=None)
@given(
    st.lists(st.integers(0, 2), min_size=NVARS, max_size=NVARS),
    st.dictionaries(monomials, coefficients, max_size=8),
    st.dictionaries(monomials, coefficients, max_size=8),
    bounds,
    bounds,
)
def test_bucketed_product_matches_naive(weights, terms_f, terms_g, bound_f, bound_g):
    table = VarTable(tuple((AUX, f"v{p}") for p in range(NVARS)), weights)
    f = Poly(table, terms_f).truncate(bound_f)
    g = Poly(table, terms_g).truncate(bound_g)
    expected, bound = naive_product(f, g)
    for product in (f * g, g * f):
        assert product.bound == bound
        assert product.terms == expected
    # So the bounded product is also the exact product truncated afterwards.
    assert (Poly(table, dict(f.terms)) * Poly(table, dict(g.terms))).truncate(bound).terms == expected


# -- derivation against the per-variable loop ---------------------------------------


def loop_differentiate(f, pos):
    """The per-variable partial: one scan of the terms for one variable."""
    out = {}
    for m, c in f.terms.items():
        for k, (p, e) in enumerate(m):
            if p == pos:
                nm = m[:k] + m[k + 1:] if e == 1 else m[:k] + ((p, e - 1),) + m[k + 1:]
                out[nm] = c * GaussScalar(e)
                break
    return Poly(f.table, out, None if f.bound is None else f.bound - f.table.weights[pos])


def loop_derivation(f, vector):
    """Differentiate once per variable, multiply by the coefficient, add.
    Its bound is the rule Poly.derivation states: the minimum of
    f.bound - weight(v) over the vector's variables v and the bounds of the
    coefficients of nonzero partials."""
    weights = [f.table.weights[f.table.index(vid)] for vid in vector]
    out = Poly.zero(f.table, None if f.bound is None or not weights else f.bound - max(weights))
    for vid, a in vector.items():
        d = loop_differentiate(f, f.table.index(vid))
        if not d.is_zero():
            out = out + a * d
    return out


small_bounds = st.one_of(st.none(), st.integers(0, 6))


@settings(max_examples=budget(300), deadline=None)
@given(
    st.lists(st.integers(0, 2), min_size=NVARS, max_size=NVARS),
    st.dictionaries(monomials, coefficients, max_size=8),
    small_bounds,
    st.dictionaries(
        st.integers(0, NVARS - 1),
        st.tuples(st.dictionaries(monomials, coefficients, max_size=4), small_bounds),
    ),
)
def test_derivation_matches_per_variable_loop(weights, terms_f, bound_f, vector_terms):
    table = VarTable(tuple((AUX, f"v{p}") for p in range(NVARS)), weights)
    f = Poly(table, terms_f).truncate(bound_f)
    vector = {table.ids[p]: Poly(table, t).truncate(b) for p, (t, b) in vector_terms.items()}
    expected = loop_derivation(f, vector)
    got = f.derivation(vector)
    assert got.terms == expected.terms
    assert got.bound == expected.bound
    for vid in table.ids:
        one = loop_derivation(f, {vid: Poly.const(table, 1)})
        d = f.differentiate(vid)
        assert (d.terms, d.bound) == (one.terms, one.bound)


# -- no stored zero coefficient ------------------------------------------------------

# A small monomial pool and unit coefficients, so that sums and products cancel
# often.
few_monomials = st.sampled_from([(), ((0, 1),), ((1, 1),), ((0, 1), (1, 1)), ((0, 2),), ((1, 2),), ((2, 1),), ((3, 1),)])
unit_coefficients = st.sampled_from([ONE, -ONE, I, -I, GaussScalar(2), GaussScalar(Fraction(-1, 2))])


def stored_zeros(f):
    return [m for m, c in f.terms.items() if c.is_zero()]


@settings(max_examples=budget(200), deadline=None)
@given(st.lists(st.integers(0, 2), min_size=NVARS, max_size=NVARS), st.data())
def test_no_operation_stores_a_zero_coefficient(weights, data):
    # _add_into takes a term dict unchanged into an empty accumulator, which
    # is sound only while no Poly stores a zero coefficient.
    table = VarTable(tuple((AUX, f"v{p}") for p in range(NVARS)), weights)

    def draw(monos=few_monomials, max_size=6):
        terms = data.draw(st.dictionaries(monos, unit_coefficients, max_size=max_size))
        return Poly(table, terms).truncate(data.draw(small_bounds))

    f, h = draw(), draw()
    # g cancels a drawn subset of f's terms, so f + g has vanishing sums.
    cancelled = data.draw(st.sets(st.sampled_from(sorted(f.terms)))) if f.terms else set()
    g = Poly(table, {**h.terms, **{m: -f.terms[m] for m in cancelled}}).truncate(h.bound)
    exact_f, exact_g = Poly(table, dict(f.terms)), Poly(table, dict(g.terms))
    positions = st.sets(st.integers(0, NVARS - 1))
    vector = {table.ids[p]: draw(max_size=3) for p in data.draw(positions)}
    nonconstant = few_monomials.filter(bool)
    bindings = {table.ids[p]: draw(nonconstant, max_size=3) for p in data.draw(positions)}
    target = VarTable(tuple(reversed(table.ids)), tuple(reversed(weights)))
    results = [
        f + g, g + f, f - g, g - f, f - f, exact_f + exact_g,
        f * g, g * f, (f + g) * (f - g), exact_f * exact_g, (exact_f + exact_g) * (exact_f - exact_g),
        f.truncate(data.draw(small_bounds)), f.scale(data.draw(unit_coefficients)), f.scale(ZERO),
        f.derivation(vector), f.substitute(bindings), exact_f.substitute(bindings), f.convert(target),
        parse_poly(f"{exact_f} + ({exact_g})", table), parse_poly(f"({exact_f})*({exact_g})", table),
    ]
    for r in results:
        assert stored_zeros(r) == []


def loop_add_into(out, terms):
    """The per-term accumulation _add_into used to run into any dict,
    checking every new coefficient for zero."""
    for m, c in terms.items():
        acc = out.get(m)
        if acc is None:
            if not c.is_zero():
                out[m] = c
        else:
            s = acc + c
            if s.is_zero():
                del out[m]
            else:
                out[m] = s


@settings(max_examples=budget(300), deadline=None)
@given(st.dictionaries(few_monomials, unit_coefficients), st.dictionaries(few_monomials, unit_coefficients))
def test_add_into_matches_per_term_loop(start, terms):
    for base in ({}, start):
        got, expected = dict(base), dict(base)
        _add_into(got, terms)
        loop_add_into(expected, terms)
        assert list(got.items()) == list(expected.items())


def dense_sort_key(mono, nvars):
    """The graded-lex key on a dense exponent vector over every table position."""
    dense = [0] * nvars
    for p, e in mono:
        dense[p] = e
    return (sum(dense), tuple(-e for e in dense))


@settings(max_examples=budget(300), deadline=None)
@given(st.lists(monomials, max_size=12))
def test_sparse_sort_key_matches_dense(monos):
    assert sorted(monos, key=mono_sort_key) == sorted(monos, key=lambda m: dense_sort_key(m, NVARS))


def substitution_outcome(run):
    """[(terms, bound)] of each result, or the message of a ValueError."""
    try:
        return [(f.terms, f.bound) for f in run()]
    except ValueError as exc:
        return str(exc)


@settings(max_examples=budget(200), deadline=None)
@given(st.lists(st.integers(0, 2), min_size=NVARS, max_size=NVARS), st.integers(0, 2**32))
def test_substitute_all_matches_per_polynomial_reference(weights, seed):
    # Two to four polynomials with mixed bounds over a few variables, so
    # that they share powers of replaced variables under different bounds;
    # bindings are series, exact polynomials, ints and scalars, sometimes
    # with a constant term, and now and then one on another table.  One
    # assertion, so a failure is shrunk once.
    rng = Random(seed)
    table = VarTable(tuple((AUX, f"v{p}") for p in range(NVARS)), weights)
    vids = list(table.ids)

    polys = [random_poly(rng, table, vids, max_terms=8).truncate(rng.choice([None, *range(6)])) for _ in range(rng.randint(2, 4))]
    bindings = {}
    for vid in rng.sample(vids, rng.randint(0, NVARS)):
        kind = rng.randrange(8)
        if kind == 0:
            bindings[vid] = rng.randint(-2, 2)
        elif kind == 1:
            bindings[vid] = random_scalar(rng)
        else:
            value = random_poly(rng, table, vids, max_terms=3)
            if rng.random() < 0.9:
                value = value - Poly.const(table, value.constant_term())
            bindings[vid] = value.truncate(rng.choice([None, None, 4, 6, 8]))
    if bindings and rng.random() < 0.05:
        other = VarTable(table.ids, weights)
        bindings[rng.choice(sorted(bindings))] = Poly.var(other, vids[0])
    got = substitution_outcome(lambda: substitute_all(polys, bindings))
    expected = substitution_outcome(lambda: [reference_substitute(f, bindings) for f in polys])
    assert first_difference(got, expected) is None


def test_substitute_all_shares_powers_per_bound():
    # Both polynomials raise x1 to the same power, under different bounds:
    # the lower bound comes first and must not cut the second result.
    ctx = make_ctx()
    x1, x2 = ctx.x(1), ctx.x(2)
    polys = [(x1 * x1).truncate(2), (x1 * x1).truncate(4)]
    bindings = {x_var(1): x2 + x2 * x2}
    expected = [reference_substitute(f, bindings) for f in polys]
    assert [(f.terms, f.bound) for f in substitute_all(polys, bindings)] == [(f.terms, f.bound) for f in expected]


def test_substitute_all_errors():
    ctx = make_ctx()
    x1, x2 = ctx.x(1), ctx.x(2)
    series = (x1 * x2).truncate(3)
    with pytest.raises(ValueError, match="nonzero constant term"):
        substitute_all([x2, series], {x_var(1): x1 + ctx.const(1)})
    other = JetContext.create(2, 2)
    with pytest.raises(ValueError, match="different variable table"):
        substitute_all([x1], {x_var(1): other.x(2)})
    with pytest.raises(ValueError, match="share one variable table"):
        substitute_all([x1, other.x(1)], {x_var(1): x2})
    assert substitute_all([], {x_var(1): x2}) == []


def test_truncated_substitution_requires_positive_valuation():
    ctx = make_ctx()
    x1 = ctx.x(1)
    f = (x1 * x1).truncate(3)
    with pytest.raises(ValueError):
        f.substitute({x_var(1): x1 + ctx.const(1)})


def test_truncated_series_refuses_a_constant_shift_of_any_positive_weight_variable():
    # u1 does not occur in x1 + O(3), but the unknown terms above degree 2
    # may hold it (say x1*u1^2), and u1 -> u1 + 1 would move them to degree
    # 1.  A weight-0 variable shifted by a constant moves no degree.
    ctx = JetContext.create(1, 1)
    x1 = ctx.x(1)
    with pytest.raises(ValueError, match="nonzero constant term"):
        translate([(x1 + x1 ** 3).truncate(2)], {u_var(1): 1})
    table = VarTable(((AUX, "x"), (AUX, "v")), (1, 0))
    x = Poly.var(table, (AUX, "x"))
    (shifted,) = translate([(x + x ** 3).truncate(2)], {(AUX, "v"): 1})
    assert (shifted.terms, shifted.bound) == (x.terms, 2)


def test_derivation_bound_follows_the_weight():
    """A partial along a variable of weight w loses w degrees, not one."""
    table = VarTable(((AUX, "v"), (AUX, "x")), (2, 1))
    v, x = Poly.var(table, (AUX, "v")), Poly.var(table, (AUX, "x"))
    d = (v * x).truncate(3).differentiate((AUX, "v"))
    assert (d.terms, d.bound) == (x.terms, 1)
    assert (v * x).truncate(3).differentiate((AUX, "x")).bound == 2


def test_differentiate_lowers_bound():
    ctx = make_ctx()
    f = (ctx.x(1) ** 3).truncate(3)
    assert f.differentiate(x_var(1)).bound == 2
    # Also when the partial vanishes: the constant is known to degree 3 only.
    assert Poly.const(ctx.table, 5, bound=3).differentiate(x_var(1)).bound == 2


def test_sorted_terms_graded_lex():
    ctx = make_ctx()
    x1, u1 = ctx.x(1), ctx.u(1)
    f = u1 * u1 + x1 + x1 * u1 + ctx.const(3) + x1 * x1
    monos = [mono for mono, _ in f.sorted_terms()]
    degrees = [sum(e for _, e in m) for m in monos]
    assert degrees == sorted(degrees)
    # within degree 2: x1^2 before x1*u1 before u1^2
    assert str(f) == "3 + x1 + x1^2 + x1*u1 + u1^2"


def test_evaluate():
    ctx = make_ctx()
    f = ctx.x(1) * ctx.u(1) + ctx.const(2)
    val = f.evaluate({x_var(1): GaussScalar(3), u_var(1): GaussScalar(5)})
    assert val == GaussScalar(17)
    assert f.evaluate({}) == GaussScalar(2)


# -- base-point shift, re-keying and monomial text ---------------------------------


@settings(max_examples=budget(200), deadline=None)
@given(st.lists(st.integers(0, 2), min_size=NVARS, max_size=NVARS), st.integers(0, 2**32))
def test_translate_there_and_back_is_the_identity(weights, seed):
    rng = Random(seed)
    table = VarTable(tuple((AUX, f"v{p}") for p in range(NVARS)), weights)
    vids = list(table.ids)
    polys = [random_poly(rng, table, vids, max_terms=6, max_degree=4) for _ in range(rng.randint(1, 4))]
    point = random_point(rng, vids)
    back = translate(translate(polys, point), {vid: -val for vid, val in point.items()})
    assert first_difference([f.terms for f in back], [f.terms for f in polys]) is None


@settings(max_examples=budget(200), deadline=None)
@given(st.lists(st.integers(0, 2), min_size=NVARS, max_size=NVARS), st.integers(0, 2**32))
def test_convert_matches_reference(weights, seed):
    # The target holds f's variables in another order, among variables f's
    # table lacks, and lacks the source variables that f does not use.
    rng = Random(seed)
    table = VarTable(tuple((AUX, f"v{p}") for p in range(NVARS)), weights)
    used = rng.sample(list(table.ids), rng.randint(1, NVARS))
    f = random_poly(rng, table, used, max_terms=6, max_degree=4).truncate(rng.choice([None, 2, 5]))
    target_ids = used + [(AUX, f"t{k}") for k in range(rng.randint(0, 3))]
    rng.shuffle(target_ids)
    target = VarTable(target_ids)
    got, expected = f.convert(target), reference_convert(f, target)
    assert first_difference([got.table, got.terms, got.bound], [expected.table, expected.terms, expected.bound]) is None


@settings(max_examples=budget(200), deadline=None)
@given(st.lists(monomials, max_size=12))
def test_mono_str_matches_reference(monos):
    table = make_ctx().table
    assert first_difference([mono_str(table, m) for m in monos], [reference_monomial_str(m, table) for m in monos]) is None


def test_rekey_renames_only_occurring_variables():
    # The source table holds s1, which the target lacks; x1 -> u1, u1 -> x1.
    source = VarTable([x_var(1), u_var(1), (AUX, "s1")])
    target = VarTable([x_var(1), u_var(1)])
    f = parse_poly("x1^2*u1 - 3*x1 + 1", source).truncate(4)
    swap = {x_var(1): u_var(1), u_var(1): x_var(1)}
    g = rekey(f, target, swap.__getitem__)
    assert (str(g), g.bound) == ("1 - 3*u1 + x1*u1^2", 4)


@settings(max_examples=budget(300), deadline=None)
@given(
    st.lists(st.integers(0, 2), min_size=NVARS, max_size=NVARS),
    st.dictionaries(few_monomials, unit_coefficients, max_size=6),
    st.dictionaries(few_monomials, unit_coefficients, max_size=6),
    small_bounds,
    small_bounds,
)
def test_sub_matches_reference(weights, terms_f, terms_g, bound_f, bound_g):
    # Bounded and exact operands over a small monomial pool, so that many
    # differences cancel; the terms are compared in their stored order.
    table = VarTable(tuple((AUX, f"v{p}") for p in range(NVARS)), weights)
    f, g = Poly(table, terms_f).truncate(bound_f), Poly(table, terms_g).truncate(bound_g)
    exact_f, exact_g = Poly(table, dict(f.terms)), Poly(table, dict(g.terms))
    pairs = [(f, g), (g, f), (f, f), (f, exact_f), (exact_f, f), (exact_f, exact_g), (f, Poly.zero(table)), (Poly.zero(table), g)]

    def outcome(d):
        return list(d.terms.items()), d.bound

    got = [outcome(a - b) for a, b in pairs]
    expected = [outcome(reference_sub(a, b)) for a, b in pairs]
    assert first_difference(got, expected) is None
