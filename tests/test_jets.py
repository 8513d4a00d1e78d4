from random import Random

import pytest

from jetsym.jets import (
    JetContext,
    JetOrderError,
    PDESystem,
    involutivity_check,
    restricted_total_derivative,
    total_derivative,
)
from jetsym.poly import Poly
from jetsym.rings import JET, VarTable, jet_table, jet_var, u_var, x_var, zeta_var
from jetsym.segre import DefiningSeries, Signature, defining_table, segre_system

from helpers import first_difference, random_poly, reference_involutivity_check, second_jet_bindings


def test_total_derivative_examples():
    ctx = JetContext.create(2, 1)
    assert total_derivative(ctx, ctx.x(1), 1) == ctx.const(1)
    assert total_derivative(ctx, ctx.u(1), 1) == ctx.jet(1, 1)
    assert total_derivative(ctx, ctx.u(1), 2) == ctx.jet(1, 2)
    # D_2(u^1_1 * x_2) = u^1_1 + x_2 * u^1_{12}
    f = ctx.jet(1, 1) * ctx.x(2)
    assert total_derivative(ctx, f, 2) == ctx.jet(1, 1) + ctx.x(2) * ctx.jet(1, 1, 2)


def test_total_derivatives_commute_random():
    ctx = JetContext.create(2, 2)
    vids = [x_var(1), x_var(2), u_var(1), u_var(2)]  # D_1 D_2 of a first-order function needs third jets
    rng = Random(31337)
    for _ in range(110):
        f = random_poly(rng, ctx.table, vids, max_terms=3, max_degree=2)
        d12 = total_derivative(ctx, total_derivative(ctx, f, 1), 2)
        d21 = total_derivative(ctx, total_derivative(ctx, f, 2), 1)
        assert d12 == d21


def test_total_derivative_is_derivation_random():
    ctx = JetContext.create(2, 1)
    vids = [x_var(1), x_var(2), u_var(1), jet_var(1, (1,)), jet_var(1, (2,))]
    rng = Random(2029)
    for _ in range(110):
        f = random_poly(rng, ctx.table, vids, max_terms=3, max_degree=2)
        g = random_poly(rng, ctx.table, vids, max_terms=3, max_degree=2)
        i = rng.choice((1, 2))
        left = total_derivative(ctx, f * g, i)
        right = total_derivative(ctx, f, i) * g + f * total_derivative(ctx, g, i)
        assert left == right


def test_jet_order_overflow():
    ctx = JetContext.create(1, 1)
    with pytest.raises(JetOrderError):
        total_derivative(ctx, ctx.jet(1, 1, 1), 1)


def test_total_derivative_of_second_jet_function_raises():
    ctx = JetContext.create(2, 1)
    f = ctx.x(1) * ctx.jet(1, 1, 2) + ctx.u(1)
    for i in (1, 2):
        with pytest.raises(JetOrderError, match="stops at second jets"):
            total_derivative(ctx, f, i)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 3), (4, 2)])
def test_jet_table_holds_first_and_second_jets(n, m):
    table = jet_table(n, m)
    assert len(table) == n + m + m * n * (n + 3) // 2
    orders = [len(v[2]) for v in table.ids if v[0] == JET]
    assert sorted(orders) == [1] * (m * n) + [2] * (m * n * (n + 1) // 2)
    ctx = JetContext(table)
    assert (ctx.n, ctx.m) == (n, m)


def test_jet_context_refuses_table_without_second_jets():
    first = [x_var(1), x_var(2), u_var(1), jet_var(1, (1,)), jet_var(1, (2,))]
    with pytest.raises(ValueError, match="second jets"):
        JetContext(VarTable(first))
    # one second jet short of the (2, 1) table
    with pytest.raises(ValueError, match="second jets"):
        JetContext(VarTable(first + [jet_var(1, (1, 1)), jet_var(1, (1, 2))]))
    assert JetContext(VarTable(first + [jet_var(1, (1, 1)), jet_var(1, (1, 2)), jet_var(1, (2, 2))])).n == 2


def test_restricted_total_derivative_examples():
    ctx = JetContext.create(1, 1)
    flat = PDESystem(ctx)
    assert restricted_total_derivative(flat, ctx.jet(1, 1), 1).is_zero()

    sys_u = PDESystem(ctx, {(1, 1, 1): ctx.u(1)})
    assert restricted_total_derivative(sys_u, ctx.jet(1, 1), 1) == ctx.u(1)

    f = ctx.x(1) * ctx.u(1)
    assert restricted_total_derivative(flat, f, 1) == ctx.u(1) + ctx.x(1) * ctx.jet(1, 1)


def test_restricted_rejects_second_jets():
    ctx = JetContext.create(1, 1)
    flat = PDESystem(ctx)
    with pytest.raises(ValueError):
        restricted_total_derivative(flat, ctx.jet(1, 1, 1), 1)


def test_restricted_equals_substituted_total_random():
    ctx = JetContext.create(2, 2)
    rng = Random(555)
    vids = [x_var(1), x_var(2), u_var(1), u_var(2), jet_var(1, (1,)), jet_var(2, (1,)), jet_var(1, (2,))]
    entries = {}
    for k in (1, 2):
        for i in (1, 2):
            for j in (1, 2):
                if i <= j:
                    entries[(k, i, j)] = random_poly(rng, ctx.table, vids, max_terms=2, max_degree=2)
    sys_ = PDESystem(ctx, entries)
    bindings = second_jet_bindings(sys_)
    for _ in range(60):
        f = random_poly(rng, ctx.table, vids, max_terms=3, max_degree=2)
        i = rng.choice((1, 2))
        left = restricted_total_derivative(sys_, f, i)
        right = total_derivative(ctx, f, i).substitute(bindings)
        assert left == right


def test_involutivity_flat():
    for n, m in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        ctx = JetContext.create(n, m)
        assert involutivity_check(PDESystem(ctx)).involutive


def test_involutivity_counterexample():
    ctx = JetContext.create(2, 1)
    sys_ = PDESystem(ctx, {(1, 1, 1): ctx.x(2)})
    verdict = involutivity_check(sys_)
    assert not verdict.involutive
    (k, i, j, l, diff) = verdict.failures[0]
    assert (k, i, j, l) == (1, 1, 1, 2)
    assert diff == ctx.const(1)


def test_involutivity_vacuous_for_one_variable():
    ctx = JetContext.create(1, 1)
    sys_ = PDESystem(ctx, {(1, 1, 1): ctx.jet(1, 1) * ctx.jet(1, 1) + ctx.x(1)})
    assert involutivity_check(sys_).involutive


def verdict_key(verdict):
    return verdict.involutive, [(k, i, j, l, d.terms, d.bound) for k, i, j, l, d in verdict.failures]


def test_involutivity_matches_reference_loop():
    # Each restricted derivative is formed once; the verdict and the failures,
    # order included, must be those of the loop that forms every one afresh.
    rng = Random(2718)
    systems = []
    for n, m in [(2, 1), (2, 2), (3, 1), (3, 2)] * 3:
        ctx = JetContext.create(n, m)
        vids = [x_var(i) for i in range(1, n + 1)] + [u_var(mu) for mu in range(1, m + 1)]
        vids += [jet_var(mu, (i,)) for mu in range(1, m + 1) for i in range(1, n + 1)]
        entries = {
            (k, i, j): random_poly(rng, ctx.table, vids, max_terms=3, max_degree=2)
            for k in range(1, m + 1)
            for i in range(1, n + 1)
            for j in range(i, n + 1)
            if rng.random() < 0.7
        }
        systems.append(PDESystem(ctx, entries))
    ctx = JetContext.create(2, 1)
    systems.append(PDESystem(ctx, {(1, 1, 1): ctx.u(1)}))  # u_11 = u: not involutive
    for sig in ("+-", "++-"):
        table = defining_table(len(sig))
        R = Poly.var(table, x_var(1)) ** 2 * Poly.var(table, zeta_var(1)) ** 2
        systems.append(segre_system(DefiningSeries(Signature.parse(sig), R), order=5))
    verdicts = [verdict_key(involutivity_check(s)) for s in systems]
    assert not verdicts[-3][0]
    assert first_difference(verdicts, [verdict_key(reference_involutivity_check(s)) for s in systems]) is None


def test_pdesystem_validation():
    ctx = JetContext.create(1, 1)
    with pytest.raises(ValueError):
        PDESystem(ctx, {(1, 1, 1): ctx.jet(1, 1, 1)})
    with pytest.raises(ValueError):
        PDESystem(ctx, {(2, 1, 1): ctx.zero()})
    with pytest.raises(ValueError):
        JetContext.create(0, 1)
