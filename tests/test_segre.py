from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from jetsym.determining import LinearAnsatz, symmetry_algebra
from jetsym.jets import JetContext, involutivity_check
from jetsym.lie_alg import FieldBasis, bracket, closure_check, flat_generators, span_equal
from jetsym.poly import Poly
from jetsym.prolong import VectorField, lie_criterion_check
from jetsym.rings import W, WBAR, Z, ZBAR, cr_table, jet_var, u_var, x_var, zeta_var
from jetsym.scalars import GaussScalar, I, ONE
from jetsym.segre import (
    DefiningSeries,
    HoloField,
    RealDefiningPolynomial,
    Signature,
    _tangency_rows,
    cr_automorphism_algebra,
    conjugate_poly,
    cr_tangency_check,
    defining_table,
    hyperquadric,
    hyperquadric_rho,
    reduce_by_rho,
    segre_system,
    tangency_remainder,
    to_xu_field,
    totally_real_check,
)
from jetsym.series import implicit_series_solve

from helpers import (
    budget,
    cr_ansatz,
    first_difference,
    random_perturbation,
    random_poly,
    reference_conjugate_poly,
    reference_cr_automorphism_algebra,
    reference_segre_system,
    reference_to_xu_field,
    reference_totally_real_check,
)


def cubic_perturbation():
    table = defining_table(1)
    R = Poly.var(table, x_var(1)) ** 2 * Poly.var(table, zeta_var(1))
    return DefiningSeries(Signature((1,)), R)


def quartic_perturbation():
    table = defining_table(1)
    R = Poly.var(table, x_var(1)) ** 2 * Poly.var(table, zeta_var(1)) ** 2
    return DefiningSeries(Signature((1,)), R)


# -- derivation ------------------------------------------------------------------


def test_hyperquadric_system_is_flat():
    for sig in [Signature((1,)), Signature((-1,)), Signature((1, 1)), Signature((1, -1))]:
        sys_ = segre_system(hyperquadric(sig), order=5)
        assert all(f.is_zero() for f in sys_.entries.values())
        assert involutivity_check(sys_).involutive


def test_perturbed_system_nonzero_and_involutive():
    sys_ = segre_system(quartic_perturbation(), order=6)
    F = sys_.F(1, 1, 1)
    assert not F.is_zero()
    assert involutivity_check(sys_).involutive
    # hand elimination: zeta1 = -p - 2x zeta1^2, F = -2 zeta1^2
    ctx = sys_.ctx
    p, x = ctx.jet(1, 1), ctx.x(1)
    expected_low = -(p * p).scale(GaussScalar(2)) - (x * p * p * p).scale(GaussScalar(8))
    diff = F - expected_low
    assert all(sum(e for _, e in mono) >= 5 for mono in diff.terms)


def back_substitution_residual(defn: DefiningSeries, sys_, order: int):
    """Independent oracle: solve the defining relation for u = u(x, s) as a
    joint series, differentiate the solution family, and compare against
    the derived right sides."""
    table = defn.table
    n = defn.n
    relation = Poly.var(table, u_var(1)) + Poly.var(table, zeta_var(n + 1)) + defn.R
    for j, eps in enumerate(defn.signature.eps, start=1):
        relation = relation + (
            Poly.var(table, x_var(j)) * Poly.var(table, zeta_var(j))
        ).scale(GaussScalar(eps))
    usol = implicit_series_solve([relation], [u_var(1)], order)[u_var(1)]
    grads = {k: usol.differentiate(x_var(k)) for k in range(1, n + 1)}
    bindings = {u_var(1): usol}
    for k, g in grads.items():
        bindings[jet_var(1, (k,))] = g
    residuals = []
    for k in range(1, n + 1):
        for j in range(k, n + 1):
            second = grads[k].differentiate(x_var(j))
            F = sys_.F(1, k, j).convert(table)
            residuals.append(second - F.substitute(bindings))
    return residuals


def test_back_substitution_oracle_cubic():
    defn = cubic_perturbation()
    sys_ = segre_system(defn, order=8)
    residuals = back_substitution_residual(defn, sys_, order=8)
    for r in residuals:
        assert r.is_zero()
        assert r.bound >= 6

    # sample concrete parameter directions: substitute s_k = c_k * s_1
    table = defn.table
    s1 = Poly.var(table, zeta_var(1))
    for c1, c2 in [(1, 2), (-1, 3)]:
        ray = {zeta_var(1): s1.scale(GaussScalar(c1)), zeta_var(2): s1.scale(GaussScalar(c2))}
        for r in residuals:
            assert r.substitute(ray).is_zero()


def test_back_substitution_oracle_hyperquadric_n2():
    defn = hyperquadric(Signature((1, -1)))
    sys_ = segre_system(defn, order=5)
    for r in back_substitution_residual(defn, sys_, order=5):
        assert r.is_zero()


def test_segre_system_matches_reference():
    # Twenty seeded cases: n <= 3 with both signs, orders 2 to 5, and each
    # kind of R in turn.
    got, expected = [], []
    for seed in range(20):
        rng = Random(seed)
        sig = Signature(tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 3))))
        defn = DefiningSeries(sig, random_perturbation(rng, sig.n, ("zero", "rigid", "u1", "s_n+1")[seed % 4]))
        order = rng.randint(2, 5)
        for out, derive in ((got, segre_system), (expected, reference_segre_system)):
            out += [(str(sig), order, key, f.terms, f.bound) for key, f in sorted(derive(defn, order).entries.items())]
    assert first_difference(got, expected) is None


def test_defining_series_validation():
    table = defining_table(1)
    quadratic = Poly.var(table, x_var(1)) * Poly.var(table, zeta_var(1))
    with pytest.raises(ValueError):
        DefiningSeries(Signature((1,)), quadratic)
    with_jet = Poly.var(table, jet_var(1, (1,))) ** 3
    with pytest.raises(ValueError):
        DefiningSeries(Signature((1,)), with_jet)


def test_signature_parse():
    assert Signature.parse("+-").eps == (1, -1)
    with pytest.raises(ValueError):
        Signature.parse("+x")
    with pytest.raises(ValueError):
        Signature(())


# -- tangency -------------------------------------------------------------------


def sphere_rho():
    return hyperquadric_rho(Signature((1,)))


def test_tangency_rotation():
    rho = sphere_rho()
    t = rho.table
    z = Poly.var(t, (Z, 1))
    X = HoloField(t, [z.scale(I), Poly.zero(t)])
    assert cr_tangency_check(X, rho)


def test_tangency_dilation():
    rho = sphere_rho()
    t = rho.table
    z, w = Poly.var(t, (Z, 1)), Poly.var(t, (W,))
    X = HoloField(t, [z, w.scale(GaussScalar(2))])
    assert cr_tangency_check(X, rho)


def test_tangency_rejects_normal_translation():
    rho = sphere_rho()
    t = rho.table
    X = HoloField(t, [Poly.zero(t), Poly.const(t, ONE)])
    assert not cr_tangency_check(X, rho)


def test_tangency_real_linearity():
    rho = sphere_rho()
    t = rho.table
    z, w = Poly.var(t, (Z, 1)), Poly.var(t, (W,))
    X = HoloField(t, [z.scale(I), Poly.zero(t)])
    Y = HoloField(t, [z, w.scale(GaussScalar(2))])
    rng = Random(8)
    for _ in range(20):
        a, b = GaussScalar(rng.randint(-4, 4)), GaussScalar(rng.randint(-4, 4))
        combo = X.scale(a) + Y.scale(b)
        assert cr_tangency_check(combo, rho)


def test_reality_validation():
    t = cr_table(1)
    z = Poly.var(t, (Z, 1))
    with pytest.raises(ValueError):
        RealDefiningPolynomial(z)  # z alone is not real


def test_division_requires_leading_w():
    # z*zb is real but has no leading w term, so the reduction must refuse
    t = cr_table(1)
    z = Poly.var(t, (Z, 1))
    zb = Poly.var(t, ("zbar", 1))
    no_w = RealDefiningPolynomial(z * zb)
    X = HoloField(t, [z, Poly.zero(t)])
    with pytest.raises(ValueError):
        cr_tangency_check(X, no_w)


def test_reduction_requires_w_free_tail():
    t = cr_table(1)
    w, wb = Poly.var(t, (W,)), Poly.var(t, (WBAR,))
    rho = RealDefiningPolynomial(w + wb + w * wb).rho
    with pytest.raises(ValueError):
        reduce_by_rho(w * w, rho)


@settings(max_examples=budget(40), deadline=None)
@given(st.sampled_from(["+", "-", "+-", "++-"]), st.randoms(use_true_random=False))
def test_reduction_returns_the_w_free_part(sig, rng):
    sig = Signature.parse(sig)
    rho = hyperquadric_rho(sig).rho
    t = rho.table
    zs = [(Z, j) for j in range(1, sig.n + 1)] + [(ZBAR, j) for j in range(1, sig.n + 1)]
    q = random_poly(rng, t, zs + [(W,), (WBAR,)])
    h = random_poly(rng, t, zs + [(WBAR,)])
    assert reduce_by_rho(q * rho + h, rho) == h


# -- automorphism algebras ----------------------------------------------------------


def test_cr_dimensions():
    assert cr_automorphism_algebra(Signature((1,))).real_dimension == 8
    assert cr_automorphism_algebra(Signature((1, 1))).real_dimension == 15
    assert cr_automorphism_algebra(Signature((1, -1))).real_dimension == 15


def test_cr_basis_is_tangent_and_totally_real():
    for sig in [Signature((1,)), Signature((1, 1)), Signature((1, -1))]:
        alg = cr_automorphism_algebra(sig)
        rho = hyperquadric_rho(sig, alg.table)
        assert all(cr_tangency_check(X, rho) for X in alg.basis)
        assert totally_real_check(alg.basis)


def symmetric_inertia(B):
    """(positive, negative, zero) counts of a symmetric rational matrix, by
    exact congruence (Sylvester's law of inertia)."""
    B = [row[:] for row in B]
    pos = neg = 0
    while B:
        k = next((i for i in range(len(B)) if B[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in range(len(B)) for j in range(len(B)) if B[i][j]), None)
            if pair is None:
                break
            # Add row and column j to row and column i: the new B[i][i] is 2 B[i][j].
            k, j = pair
            for row in B:
                row[k] += row[j]
            B[k] = [a + b for a, b in zip(B[k], B[j])]
        p = B[k][k]
        pos, neg = pos + (p > 0), neg + (p < 0)
        B = [[B[r][c] - B[r][k] * B[k][c] / p for c in range(len(B)) if c != k] for r in range(len(B)) if r != k]
    return pos, neg, len(B)


def killing_form(basis: FieldBasis):
    """Whether every structure constant of a closing basis is real, and the
    inertia of its Killing form B(a, b) = sum_ij c_ai^j c_bj^i over the real
    parts."""
    result = closure_check(basis)
    assert result.closes
    d = len(basis)
    ad = [{} for _ in range(d)]  # ad[a][(j, i)] = c_ai^j, the nonzero entries of ad X_a
    real = True
    for (a, b), coeffs in result.structure_constants.items():
        for k, c in enumerate(coeffs):
            if not c.is_zero():
                real = real and c.im == 0
                ad[a][(k, b)], ad[b][(k, a)] = c.re, -c.re
    B = [[sum(v * ad[b].get((i, j), 0) for (j, i), v in ad[a].items()) for b in range(d)] for a in range(d)]
    return real, symmetric_inertia(B)


def test_killing_form_certifies_the_real_form():
    # The hyperquadric of signature (p, q) has automorphism algebra
    # su(p+1, q+1); the flat system in (n, m) has sl(n+m+1, R).
    got, expected = [], []
    for n in (1, 2, 3):
        for eps in product((1, -1), repeat=n):
            sig = Signature(eps)
            basis = FieldBasis(cr_automorphism_algebra(sig).basis)
            p, q = eps.count(1), eps.count(-1)
            got.append((str(sig), killing_form(basis)))
            expected.append((str(sig), (True, (2 * (p + 1) * (q + 1), (p + 1) ** 2 + (q + 1) ** 2 - 1, 0))))
    for n, m in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        N = n + m + 1
        got.append(((n, m), killing_form(flat_generators(n, m))))
        expected.append(((n, m), (True, (N * (N + 1) // 2 - 1, N * (N - 1) // 2, 0))))
    assert first_difference(got, expected) is None


def test_zw_closure_matches_the_xu_rewrite():
    # All 14 signatures with n <= 3: closure takes the (z, w) basis as it
    # is, and its structure constants are those of the (x, u) rewrite.
    got, expected = [], []
    for n in (1, 2, 3):
        ctx = JetContext.create(n, 1)
        for eps in product((1, -1), repeat=n):
            basis = cr_automorphism_algebra(Signature(eps)).basis
            zw = closure_check(FieldBasis(basis))
            xu = closure_check(FieldBasis([to_xu_field(X, ctx) for X in basis]))
            got.append((eps, zw.closes, xu.closes, zw.structure_constants))
            expected.append((eps, True, True, xu.structure_constants))
    assert (len(got), first_difference(got, expected)) == (14, None)


def test_cr_automorphisms_span_the_flat_symmetry_algebra():
    # The theorem as an equality for every n <= 3: the Segre system of a
    # hyperquadric is flat, and the (x, u) rewrite of the real automorphism
    # basis spans its symmetry algebra over the Gaussian rationals.
    got = []
    for n in (1, 2, 3):
        ctx = JetContext.create(n, 1)
        for eps in product((1, -1), repeat=n):
            basis = cr_automorphism_algebra(Signature(eps)).basis
            got.append((eps, span_equal([to_xu_field(X, ctx) for X in basis], flat_generators(n, 1, ctx))))
    assert (len(got), first_difference(got, [(eps, True) for eps, _ in got])) == (14, None)


def test_field_api_read_by_the_benchmark():
    # bench/workloads.py and bench/layertrace.py build and read fields
    # through these names.
    ctx = JetContext.create(2, 1)
    x1, u1, zero = ctx.x(1), ctx.u(1), ctx.zero()
    X = VectorField(ctx, [x1, u1], [x1 * u1])
    assert X.ctx is ctx and (X.theta, X.eta) == ((x1, u1), (x1 * u1,))
    Z0 = VectorField.zero(ctx)
    assert Z0.ctx is ctx and (Z0.theta, Z0.eta) == ((zero, zero), (zero,))
    assert Z0 + X.scale(GaussScalar(3)) - X.scale(GaussScalar(2)) == X
    table = cr_table(2)
    z1, w = Poly.var(table, (Z, 1)), Poly.var(table, (W,))
    H = HoloField(table, [z1, Poly.zero(table), w])
    assert H.coeffs == (z1, Poly.zero(table), w)
    moved = to_xu_field(H, ctx)
    assert moved.ctx is ctx and (moved.theta, moved.eta) == ((x1, zero), (u1,))
    back = {x_var(1): (Z, 1), x_var(2): (Z, 2), u_var(1): (W,)}
    assert moved.rekey(table, back.__getitem__) == H
    with pytest.raises(ValueError, match="^fields must share a table and coordinates$"):
        bracket(H, moved)
    with pytest.raises(ValueError, match="^field coefficients cannot mention conjugate variables$"):
        HoloField(table, [Poly.var(table, (ZBAR, 1)), Poly.zero(table), Poly.zero(table)])


def test_cr_solve_matches_sorted_rows_reference(monkeypatch):
    # All 14 signatures with n <= 3: the basis from the CR rows in the order
    # they are written equals the sorted-rows solve's exactly, and seeded
    # shuffles of those rows give the same solutions.
    solutions = LinearAnsatz.solutions
    solved = []

    def capturing(ansatz, rows):
        solved.append((ansatz, rows))
        return solutions(ansatz, rows)

    got, expected = [], []
    for n in (1, 2, 3):
        for eps in product((1, -1), repeat=n):
            sig = Signature(eps)
            with monkeypatch.context() as patch:
                patch.setattr(LinearAnsatz, "solutions", capturing)
                basis = cr_automorphism_algebra(sig).basis
            ansatz, rows = solved.pop()
            vectors = solutions(ansatz, rows)
            for seed in (1, 2, 3):
                shuffled = list(rows)
                Random(seed).shuffle(shuffled)
                got.append((str(sig), seed, solutions(ansatz, shuffled)))
                expected.append((str(sig), seed, vectors))
            reference = reference_cr_automorphism_algebra(sig).basis
            got.append((str(sig), [[f.terms for f in X.coeffs] for X in basis]))
            expected.append((str(sig), [[f.terms for f in X.coeffs] for X in reference]))
    assert (len(got), first_difference(got, expected)) == (4 * 14, None)


def test_tangency_rows_match_the_remainder_of_each_column():
    # Column c of the closed-form rows against the generic remainder of its
    # field: w^alpha d/d(zw)_comp for an aR column, i times that for aI.
    got, expected = [], []
    for text in ("+", "-", "+-", "++-", "-+-"):
        sig = Signature.parse(text)
        ansatz = cr_ansatz(sig.n)
        rho = hyperquadric_rho(sig, ansatz.table)
        rows = _tangency_rows(ansatz, rho)
        zero = Poly.zero(ansatz.table)
        for c, (_, (part, comp), alpha) in enumerate(ansatz.unknowns):
            w_alpha = Poly(ansatz.table, {ansatz.monomial(alpha): I if part == "aI" else ONE})
            X = HoloField(ansatz.table, [w_alpha if k == comp else zero for k in range(sig.n + 1)])
            got.append((text, c, {mono: row[c] for mono, row in rows.items() if c in row}))
            expected.append((text, c, tangency_remainder(X, rho).terms))
    assert first_difference(got, expected) is None


def test_totally_real_counterexamples():
    t = cr_table(1)
    z = Poly.var(t, (Z, 1))
    X = HoloField(t, [z, Poly.zero(t)])
    assert not totally_real_check([X, X.scale(I)])
    assert totally_real_check([])
    assert totally_real_check([X])


def random_holo_family(rng: Random, table, n: int) -> list:
    """Up to three random fields, then duplicates, real multiples,
    i-multiples and i times sums of them, shuffled."""
    zw = [(Z, j) for j in range(1, n + 1)] + [(W,)]
    fields = [
        HoloField(table, [random_poly(rng, table, zw, max_terms=3, max_degree=2) for _ in range(n + 1)])
        for _ in range(rng.randint(0, 3))
    ]
    for _ in range(rng.randint(0, 3) if fields else 0):
        X, Y = rng.choice(fields), rng.choice(fields)
        fields.append(
            rng.choice([X, X.scale(GaussScalar(rng.randint(-3, 3))), X.scale(I), (X + Y).scale(I)])
        )
    rng.shuffle(fields)
    return fields


@settings(max_examples=budget(40), deadline=None)
@given(st.integers(0, 2**32))
def test_totally_real_check_matches_reference(seed):
    # The rank comparison (complex rank of A against the real rank of A)
    # must agree with the old test (real rank of A and iA against 2 rank A)
    # on families with duplicates, real multiples, i-multiples, sums and
    # the empty family.
    rng = Random(seed)
    families = [[]]
    for n in (1, 2):
        table = cr_table(n)
        families += [random_holo_family(rng, table, n) for _ in range(4)]
    got = [totally_real_check(fields) for fields in families]
    assert first_difference(got, [reference_totally_real_check(fields) for fields in families]) is None


def test_infinitesimal_segre_invariance():
    for sig in [Signature((1,)), Signature((1, 1)), Signature((1, -1))]:
        alg = cr_automorphism_algebra(sig)
        sys_ = segre_system(hyperquadric(sig), order=5)
        for X in alg.basis:
            residuals = lie_criterion_check(to_xu_field(X, sys_.ctx), sys_)
            assert all(r.is_zero() for r in residuals.values())


def test_real_dimension_bounded_by_complex_symmetry_dimension():
    for sig in [Signature((1,)), Signature((1, 1)), Signature((1, -1))]:
        alg = cr_automorphism_algebra(sig)
        sys_ = segre_system(hyperquadric(sig), order=5)
        sym = symmetry_algebra(sys_, order=3)
        assert alg.real_dimension <= sym.dimension


def test_hyperquadric_symmetry_algebra_matches_flat():

    sys_ = segre_system(hyperquadric(Signature((1,))), order=5)
    sym = symmetry_algebra(sys_, order=3)
    assert sym.dimension == 8
    assert span_equal(sym.basis, list(flat_generators(1, 1, sys_.ctx)))


@settings(max_examples=budget(150), deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32))
def test_conjugation_and_xu_rewrite_match_reference(n, seed):
    # Polynomials over a CR table, exact and truncated, with exponents 1
    # and above.
    rng = Random(seed)
    table = cr_table(n)
    f = random_poly(rng, table, list(table.ids), max_terms=6, max_degree=4).truncate(rng.choice([None, 3, 6]))
    zw = [(Z, j) for j in range(1, n + 1)] + [(W,)]
    X = HoloField(table, [random_poly(rng, table, zw, max_terms=4, max_degree=4) for _ in zw])
    ctx = JetContext.create(n, 1)
    got, expected = conjugate_poly(f), reference_conjugate_poly(f)
    moved, moved_ref = to_xu_field(X, ctx), reference_to_xu_field(X, ctx)
    assert first_difference(
        [got.terms, got.bound] + [(g.terms, g.bound) for g in moved.theta + moved.eta],
        [expected.terms, expected.bound] + [(g.terms, g.bound) for g in moved_ref.theta + moved_ref.eta],
    ) is None
