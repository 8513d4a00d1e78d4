from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from jetsym.expr import parse_poly
from jetsym.jets import JetContext, PDESystem, total_derivative
from jetsym.lie_alg import bracket
from jetsym.poly import Poly
from jetsym.prolong import VectorField, apply_prolonged, lie_criterion_check, prolong
from jetsym.rings import JET, W, cr_table, jet_var, u_var, x_var
from jetsym.scalars import GaussScalar
from jetsym.segre import DefiningSeries, HoloField, Signature, defining_table, segre_system

from helpers import budget, random_point_field, random_poly, second_jet_bindings


@pytest.mark.parametrize("order", [0, 3])
def test_prolongation_order_is_one_or_two(order):
    ctx = JetContext.create(2, 1)
    X = VectorField(ctx, (ctx.x(1), ctx.zero()), (ctx.u(1),))
    with pytest.raises(ValueError, match="1 or 2"):
        prolong(X, order)


def test_translation_prolongs_to_zero():
    ctx = JetContext.create(2, 1)
    X = VectorField(ctx, (ctx.const(1), ctx.zero()), (ctx.zero(),))
    Xp = prolong(X, 2)
    assert all(f.is_zero() for f in Xp.eta_jet.values())


def test_prolong_u_ddx():
    ctx = JetContext.create(1, 1)
    X = VectorField(ctx, (ctx.u(1),), (ctx.zero(),))
    Xp = prolong(X, 2)
    p, p11 = ctx.jet(1, 1), ctx.jet(1, 1, 1)
    assert Xp.coefficient(1, (1,)) == -(p * p)
    assert Xp.coefficient(1, (1, 1)) == (p * p11).scale(GaussScalar(-3))


def test_prolong_projective_generator():
    ctx = JetContext.create(1, 1)
    x, u = ctx.x(1), ctx.u(1)
    X = VectorField(ctx, (x * x,), (x * u,))
    Xp = prolong(X, 2)
    p, p11 = ctx.jet(1, 1), ctx.jet(1, 1, 1)
    assert Xp.coefficient(1, (1,)) == u - x * p
    assert Xp.coefficient(1, (1, 1)) == (x * p11).scale(GaussScalar(-3))


def test_apply_prolonged_examples():
    ctx = JetContext.create(1, 1)
    X = VectorField(ctx, (ctx.const(1),), (ctx.zero(),))
    Xp = prolong(X, 2)
    assert apply_prolonged(Xp, ctx.x(1)) == ctx.const(1)
    assert apply_prolonged(Xp, ctx.u(1)).is_zero()

    x, u = ctx.x(1), ctx.u(1)
    Y = VectorField(ctx, (x * x,), (x * u,))
    Yp = prolong(Y, 2)
    assert apply_prolonged(Yp, ctx.jet(1, 1)) == u - x * ctx.jet(1, 1)


def test_apply_prolonged_order_mismatch():
    ctx = JetContext.create(1, 1)
    X = VectorField(ctx, (ctx.const(1),), (ctx.zero(),))
    Xp = prolong(X, 1)
    with pytest.raises(ValueError):
        apply_prolonged(Xp, ctx.jet(1, 1, 1))


def test_derivations_lower_the_bound_of_a_constant():
    """A constant known to degree 4 has derivatives known to degree 3,
    whatever the field, as total_derivative already says."""
    ctx = JetContext.create(2, 1)
    X = VectorField(ctx, (ctx.x(2), ctx.const(1)), (ctx.u(1),))
    c = Poly.const(ctx.table, 5, bound=4)
    assert X.apply_to(c).bound == 3
    assert apply_prolonged(prolong(X, 2), c).bound == 3
    assert total_derivative(ctx, c, 1).bound == 3
    t = cr_table(1)
    holo = HoloField(t, (Poly.var(t, (W,)),) * 2)
    assert holo.apply_to(Poly.const(t, 5, bound=4)).bound == 3


def test_lie_criterion_examples():
    ctx = JetContext.create(1, 1)
    flat = PDESystem(ctx)
    x, u = ctx.x(1), ctx.u(1)

    X1 = VectorField(ctx, (x * x,), (x * u,))
    assert all(r.is_zero() for r in lie_criterion_check(X1, flat).values())

    X2 = VectorField(ctx, (ctx.zero(),), (x * x,))
    assert lie_criterion_check(X2, flat)[(1, 1, 1)] == ctx.const(2)

    sys_p = PDESystem(ctx, {(1, 1, 1): ctx.jet(1, 1)})
    X3 = VectorField(ctx, (ctx.const(1),), (ctx.zero(),))
    assert all(r.is_zero() for r in lie_criterion_check(X3, sys_p).values())


def test_prolongation_sorting_invariance():
    # eta^mu_{i1 i2} from the recursion does not depend on which index is
    # peeled off last: compare against the recursion run the other way.
    ctx = JetContext.create(2, 2)
    rng = Random(90210)
    for _ in range(25):
        X = random_point_field(rng, ctx)
        Xp = prolong(X, 2)
        d_theta = {
            (i, j): total_derivative(ctx, X.theta[j - 1], i)
            for i in (1, 2)
            for j in (1, 2)
        }
        for mu in (1, 2):
            for (i1, i2) in [(1, 2), (2, 2), (1, 1)]:
                # peel i1 last instead of i2
                eta_i2 = total_derivative(ctx, X.eta[mu - 1], i2)
                for j in (1, 2):
                    eta_i2 = eta_i2 - Poly.var(ctx.table, jet_var(mu, (j,))) * d_theta[(i2, j)]
                other = total_derivative(ctx, eta_i2, i1)
                for j in (1, 2):
                    other = other - Poly.var(ctx.table, jet_var(mu, (i2, j))) * d_theta[(i1, j)]
                assert Xp.coefficient(mu, (i1, i2)) == other


def _jet_degrees(mono, table):
    first = second = 0
    for p, e in mono:
        vid = table.ids[p]
        if vid[0] == JET:
            if len(vid[2]) == 1:
                first += e
            else:
                second += e
    return first, second


def test_prolongation_degree_bounds_random():
    rng = Random(60601)
    cases = 0
    while cases < 120:
        n, m = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2)])
        ctx = JetContext.create(n, m)
        X = random_point_field(rng, ctx)
        Xp = prolong(X, 2)
        for (mu, idx), f in Xp.eta_jet.items():
            if len(idx) != 2:
                continue
            for mono in f.terms:
                first, second = _jet_degrees(mono, ctx.table)
                assert first <= 3
                assert second <= 1
        cases += 1


def test_cubic_coefficient_cross_check():
    # In eta^mu_{i1 i2}, the coefficient of u^a_{i2} u^b_{i1} u^mu_s equals
    # -d2 theta_s / du^a du^b for generic distinct indices.
    ctx = JetContext.create(2, 2)
    rng = Random(11)
    i1, i2 = 1, 2
    a, b, mu, s = 1, 2, 2, 2
    target = {
        ctx.table.index(jet_var(a, (i2,))): 1,
        ctx.table.index(jet_var(b, (i1,))): 1,
        ctx.table.index(jet_var(mu, (s,))): 1,
    }
    for _ in range(30):
        X = random_point_field(rng, ctx)
        Xp = prolong(X, 2)
        f = Xp.coefficient(mu, (i1, i2))
        got = Poly.zero(ctx.table)
        for mono, c in f.terms.items():
            jets = {p: e for p, e in mono if ctx.table.ids[p][0] == JET}
            if jets == target:
                rest = tuple((p, e) for p, e in mono if ctx.table.ids[p][0] != JET)
                got = got + Poly(ctx.table, {rest: c})
        expected = -X.theta[s - 1].differentiate(u_var(a)).differentiate(u_var(b))
        assert got == expected


def test_prolong_linearity():
    ctx = JetContext.create(2, 1)
    rng = Random(404)
    for _ in range(30):
        X = random_point_field(rng, ctx)
        Y = random_point_field(rng, ctx)
        Xp, Yp, Sp = prolong(X, 2), prolong(Y, 2), prolong(X + Y, 2)
        for key in Sp.eta_jet:
            assert Sp.eta_jet[key] == Xp.eta_jet[key] + Yp.eta_jet[key]


def test_symmetries_close_under_bracket():
    # flat system: brackets of known symmetries are again symmetries
    ctx = JetContext.create(1, 1)
    flat = PDESystem(ctx)
    x, u = ctx.x(1), ctx.u(1)
    fields = [
        VectorField(ctx, (ctx.const(1),), (ctx.zero(),)),
        VectorField(ctx, (x,), (ctx.zero(),)),
        VectorField(ctx, (u,), (ctx.zero(),)),
        VectorField(ctx, (x * x,), (x * u,)),
        VectorField(ctx, (x * u,), (u * u,)),
    ]
    for X in fields:
        assert all(r.is_zero() for r in lie_criterion_check(X, flat).values())
    for X in fields:
        for Y in fields:
            Z = bracket(X, Y)
            assert all(r.is_zero() for r in lie_criterion_check(Z, flat).values())


# -- the criterion on the equation manifold against the second prolongation ------


def criterion_by_substitution(X, sys_):
    """The criterion the long way: prolong X to second jets, replace the
    second jets by F, and subtract the prolonged field applied to F."""
    ctx = sys_.ctx
    Xp = prolong(X, 2)
    bindings = second_jet_bindings(sys_)
    return {
        (mu, i, j): Xp.coefficient(mu, (i, j)).substitute(bindings) - apply_prolonged(Xp, sys_.F(mu, i, j))
        for mu in range(1, ctx.m + 1)
        for i in range(1, ctx.n + 1)
        for j in range(i, ctx.n + 1)
    }


@st.composite
def jet_systems(draw):
    """Random F in (x, u, first jets), each truncated at its own bound or exact."""
    n, m = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]))
    ctx = JetContext.create(n, m)
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    first = [x_var(i) for i in range(1, n + 1)] + [u_var(mu) for mu in range(1, m + 1)]
    first += [jet_var(mu, (i,)) for mu in range(1, m + 1) for i in range(1, n + 1)]
    entries = {
        (k, i, j): random_poly(rng, ctx.table, first, max_terms=4, max_degree=3).truncate(
            draw(st.one_of(st.none(), st.integers(0, 4)))
        )
        for k in range(1, m + 1)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    }
    return PDESystem(ctx, entries)


PERTURBATIONS = ["0", "x1^2*s1", "x1^2*s1^2", "x1*u1*s1^2 + u1^2*s1^2", "u1*s1^2 - 2*x1^3"]


@st.composite
def segre_systems(draw):
    """Segre systems of perturbed hyperquadrics, truncated at a drawn order."""
    sig = Signature.parse(draw(st.sampled_from(["+", "-", "+-", "++"])))
    table = defining_table(sig.n)
    R = parse_poly(draw(st.sampled_from(PERTURBATIONS)), table)
    if sig.n == 2 and draw(st.booleans()):
        R = R + parse_poly("x2*u1*s3", table)
    return segre_system(DefiningSeries(sig, R), order=draw(st.integers(3, 6)))


@settings(max_examples=budget(150), deadline=None)
@given(st.one_of(jet_systems(), segre_systems()), st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_criterion_on_manifold_matches_substitution(sys_, seed, degree):
    X = random_point_field(Random(seed), sys_.ctx, max_terms=4, max_degree=degree)
    got = lie_criterion_check(X, sys_)
    expected = criterion_by_substitution(X, sys_)
    assert got.keys() == expected.keys()
    for key, r in expected.items():
        assert (got[key].terms, got[key].bound) == (r.terms, r.bound), key
