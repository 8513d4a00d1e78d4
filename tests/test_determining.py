import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from jetsym.determining import (
    ETA,
    THETA,
    DeterminingSystem,
    InconsistentLayerError,
    InitialData,
    TruncationOrderError,
    UnderdeterminedLayerError,
    UnknownCoefficientField,
    _distinct,
    _shift_field,
    _spread,
    alpha_factorial,
    generate_determining,
    initial_data_of,
    monomials_up_to,
    omega_basis,
    omega_ids,
    symmetry_algebra,
    taylor_from_initial_data,
)
from jetsym.cli import main
from jetsym.jets import JetContext, PDESystem
from jetsym.linalg import LinearSystemExact, _Reducer, solve_linear_exact, sparse_rank
from jetsym.lie_alg import flat_generators, span_equal
from jetsym.poly import Poly
from jetsym.prolong import VectorField, lie_criterion_check, lie_operator
from jetsym.rings import COEF, JET, jet_var, u_var, x_var, zeta_var
from jetsym.scalars import GaussScalar, ONE, ZERO
from jetsym.segre import DefiningSeries, Signature, defining_table, hyperquadric, segre_system

from helpers import (
    _power_factor,
    ansatz_poly,
    budget,
    cr_ansatz,
    ext_table,
    first_difference,
    group,
    linear_residual,
    random_point,
    random_perturbation,
    random_point_field,
    random_poly,
    reference_criterion_operator,
    reference_determining,
    reference_label,
    reference_monomial_str,
    reference_shift_field,
    reference_spread,
    reference_symmetry_algebra,
    reference_translated,
    second_order_forms,
    sort_all_collect,
    system_of_rows,
    written_rows,
    zero_initial_data,
)


def flat_system(n, m):
    return PDESystem(JetContext.create(n, m))


def random_first_order_system(rng, n, m):
    """Random F in (x, u, first jets): with n = 1 every system is involutive,
    with n = 2 most are not."""
    ctx = JetContext.create(n, m)
    vids = [x_var(i) for i in range(1, n + 1)] + [u_var(mu) for mu in range(1, m + 1)]
    vids += [jet_var(mu, (i,)) for mu in range(1, m + 1) for i in range(1, n + 1)]
    entries = {
        (k, i, j): random_poly(rng, ctx.table, vids, max_terms=2, max_degree=2)
        for k in range(1, m + 1)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
        if rng.random() < 0.7
    }
    return PDESystem(ctx, entries)


def perturbed_segre_system(order=6):
    table = defining_table(1)
    R = Poly.var(table, x_var(1)) ** 2 * Poly.var(table, zeta_var(1)) ** 2
    return segre_system(DefiningSeries(Signature((1,)), R), order=order)


# -- generation ---------------------------------------------------------------


def jet_degree(mono, table):
    """The first-jet degree of an ordinary monomial."""
    return sum(e for p, e in mono if table.ids[p][0] == JET)


def test_classical_equations_flat_11():
    sys_ = flat_system(1, 1)
    field = UnknownCoefficientField(sys_.ctx, 2)
    det = generate_determining(sys_, field)
    assert det.unknown_count == 12
    assert det.row_count == 4

    def cid(func, alpha):
        return field.col[(COEF, func, alpha)]

    two = GaussScalar(2)
    # normalized expected rows, keyed by the jet monomial degree of p = u^1_1
    expected = {
        0: {cid((ETA, 1), (2, 0)): two},                                # eta_xx = 0
        1: {cid((THETA, 1), (2, 0)): -two, cid((ETA, 1), (1, 1)): two},  # 2 eta_xu - theta_xx = 0
        2: {cid((THETA, 1), (1, 1)): -two, cid((ETA, 1), (0, 2)): two},  # eta_uu - 2 theta_xu = 0
        3: {cid((THETA, 1), (0, 2)): -two},                              # theta_uu = 0
    }
    seen = {}
    for prov, row in det.ordered():
        assert (prov.mu, prov.i, prov.j) == (1, 1, 1)
        assert prov.xu_degree == 0
        seen[jet_degree(prov.mono, field.table)] = row
    assert seen == expected


def test_row_layering_flat_11_order_3():
    # order 3 adds the differentiated layer: 4 rows at (x,u)-degree 0 and
    # 8 rows at degree 1, pinning all 8 third-order Taylor coefficients
    sys_ = flat_system(1, 1)
    field = UnknownCoefficientField(sys_.ctx, 3)
    det = generate_determining(sys_, field)
    by_degree = {}
    for prov, _ in det.ordered():
        by_degree[prov.xu_degree] = by_degree.get(prov.xu_degree, 0) + 1
    assert by_degree == {0: 4, 1: 8}


def test_zero_ansatz_satisfies_all_rows():
    sys_ = flat_system(2, 1)
    field = UnknownCoefficientField(sys_.ctx, 3)
    det = generate_determining(sys_, field)
    zero_vec = [ZERO] * det.unknown_count
    system = LinearSystemExact([row for _, row in det.ordered()], [ZERO] * det.row_count, ncols=det.unknown_count)
    assert all(v.is_zero() for v in linear_residual(system, zero_vec))


def test_unknown_count_formula():
    for n, m, order in [(1, 1, 2), (1, 1, 3), (2, 1, 3), (2, 2, 3)]:
        ctx = JetContext.create(n, m)
        field = UnknownCoefficientField(ctx, order)
        q = n + m
        monomials = 1
        # number of monomials of degree <= order in q variables: C(q+order, order)
        from math import comb

        assert len(field.unknowns) == q * comb(q + order, order)


def test_truncation_too_small_rejected():
    sys_ = perturbed_segre_system(order=3)
    field = UnknownCoefficientField(sys_.ctx, 3)
    with pytest.raises(TruncationOrderError):
        generate_determining(sys_, field)


def test_truncation_too_small_rejected_for_the_hyperquadric():
    # Every F is 0 + O(4), so the residuals hold to degree 3 only, as for the
    # perturbed system: the degree-3 ansatz needs degree 4.
    sys_ = segre_system(hyperquadric(Signature.parse("++")), order=4)
    field = UnknownCoefficientField(sys_.ctx, 3)
    with pytest.raises(TruncationOrderError):
        generate_determining(sys_, field)


# -- LinearAnsatz -----------------------------------------------------------------


def ansatz_round_trip(ansatz, targets):
    """Solve poly(name) = P for every (name, P), one equation per collected
    row with P's coefficient as its right side, and realize the solution."""
    names = list(targets)
    groups = group(ansatz, {k: ansatz_poly(ansatz, name) for k, name in enumerate(names)})
    rows, rhs = [], []
    for k, by_mono in groups.items():
        for mono, row in by_mono.items():
            rows.append(row)
            rhs.append(targets[names[k]].terms.get(mono, ZERO))
    system = LinearSystemExact(rows, rhs, ncols=len(ansatz.unknowns))
    result = solve_linear_exact(system)
    assert result.consistent and not result.null_vectors
    polys = ansatz.realize({c: v for c, v in enumerate(result.particular) if not v.is_zero()})
    return {name: polys[name] for name in names}


def random_target(data, table, wvars, order):
    """A polynomial of degree <= order in wvars with random Gaussian coefficients."""
    alphas = monomials_up_to(len(wvars), order)
    coefficient = st.builds(
        lambda a, b, c: GaussScalar(Fraction(a, b), c), st.integers(-3, 3), st.integers(1, 3), st.integers(-1, 1)
    )
    terms = data.draw(st.dictionaries(st.sampled_from(alphas), coefficient, max_size=6))
    pos = [table.index(v) for v in wvars]
    return Poly(
        table,
        {tuple(sorted((p, e) for p, e in zip(pos, a) if e)): c for a, c in terms.items() if not c.is_zero()},
    )


@settings(max_examples=budget(40), deadline=None)
@given(st.sampled_from([(1, 1, 2), (1, 1, 3), (2, 1, 2), (1, 2, 3)]), st.data())
def test_lie_ansatz_round_trip(shape, data):
    # Columns ordered by Taylor degree, then function, then exponent.
    n, m, order = shape
    field = UnknownCoefficientField(JetContext.create(n, m), order)
    names = [(THETA, j) for j in range(1, n + 1)] + [(ETA, mu) for mu in range(1, m + 1)]
    targets = {name: random_target(data, field.table, field.wvars, order) for name in names}
    assert ansatz_round_trip(field, targets) == targets


@settings(max_examples=budget(40), deadline=None)
@given(st.sampled_from([1, 2]), st.data())
def test_cr_ansatz_round_trip(n, data):
    # Columns ordered by component, then exponent, then real/imaginary part.
    ansatz = cr_ansatz(n)
    targets = {
        (part, comp): random_target(data, ansatz.table, ansatz.wvars, 2) for comp in range(n + 1) for part in ("aR", "aI")
    }
    assert ansatz_round_trip(ansatz, targets) == targets


def random_linear_polys(rng, ansatz, slots):
    """One polynomial per slot, linear in the ansatz unknowns.  The ordinary
    monomials come from a small random pool, so slots share monomials and a
    monomial carries several columns."""
    offset = len(ansatz.table)
    pool = set()
    for _ in range(rng.randint(1, 6)):
        exps = {rng.randrange(offset): rng.randint(1, 3) for _ in range(rng.randint(0, 3))}
        pool.add(tuple(sorted(exps.items())))
    pool = sorted(pool)
    coefficients = [ONE, -ONE, GaussScalar(2), GaussScalar(Fraction(1, 3), -1)]
    polys = {}
    for slot in slots:
        terms = {
            rng.choice(pool) + ((offset + rng.randrange(len(ansatz.unknowns)), 1),): rng.choice(coefficients)
            for _ in range(rng.randint(0, 10))
        }
        polys[slot] = Poly(ext_table(ansatz), terms)
    return polys


@settings(max_examples=budget(60), deadline=None)
@given(
    st.sampled_from([(1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 2, 2)]),
    st.sampled_from([(1, 1, 3), (1, 1, 4), (1, 2, 3), (2, 1, 3), (2, 1, 4), (2, 2, 3)]),
    st.integers(0, 2**32),
)
def test_collect_matches_sort_all_reference(lie_shape, shape, seed):
    # Lie slots (mu, i, j), handed over in a random order, through ``group``
    # and ``DeterminingSystem.ordered``; then the ordered rows and
    # provenance of a whole determining system, cut included.  One
    # assertion, so a failure is shrunk once.
    rng = Random(seed)
    n, m, order = lie_shape
    field = UnknownCoefficientField(JetContext.create(n, m), order)
    slots = [(mu, i, j) for mu in range(1, m + 1) for i in range(1, n + 1) for j in range(i, n + 1)]
    rng.shuffle(slots)
    polys = random_linear_polys(rng, field, slots)
    ordered = system_of_rows(field, group(field, polys)).ordered()
    lie = first_difference(
        [(((prov.mu, prov.i, prov.j), prov.mono), row) for prov, row in ordered], sort_all_collect(field, polys).items()
    )
    n, m, order = shape
    sys_ = random_first_order_system(rng, n, m)
    field = UnknownCoefficientField(sys_.ctx, order)
    det = generate_determining(sys_, field)
    rows, provenance = reference_determining(sys_, field)
    generated = first_difference([(row, prov) for prov, row in det.ordered()], zip(rows, provenance))
    assert (lie, generated) == (None, None)


def determining_outcome(derive, sys_, order):
    """The rows and provenance of a derivation as one list, or the message
    of its TruncationOrderError."""
    field = UnknownCoefficientField(sys_.ctx, order)
    try:
        rows, provenance = derive(sys_, field)
    except TruncationOrderError as exc:
        return str(exc)
    return list(zip(rows, provenance))


def generated(sys_, field):
    pairs = list(generate_determining(sys_, field).ordered())
    return [row for _, row in pairs], [prov for prov, _ in pairs]


def linearizable_system(n, m):
    """u^k_ij = -c_k u^k_i u^k_j with c_k = (k + 1)/2: v^k = exp(c_k u^k)
    turns it into v_ij = 0, so its symmetry algebra is the flat one."""
    ctx = JetContext.create(n, m)
    return PDESystem(ctx, {
        (k, i, j): ctx.const(GaussScalar(Fraction(-(k + 1), 2))) * ctx.jet(k, i) * ctx.jet(k, j)
        for k in range(1, m + 1)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    })


def truncated_and_edge_cases():
    """(label, system, N) of truncated Segre systems: each signature with
    each kind of R, at one ansatz order N each (every N = 2..5 four times),
    truncated at N + 1 (too low: TruncationOrderError from the full
    ansatz's bounds), N + 2 and N + 4.  Then random exact systems with
    Gaussian coefficients: n = 3 at N = 2 and 3, and n <= 2 at N = 2, where
    only the top layer 0 is kept."""
    cases = []
    for s, sig in enumerate(("+", "+-", "++", "+++")):
        for k, kind in enumerate(("zero", "rigid", "u1", "s_n+1")):
            signature = Signature.parse(sig)
            defn = DefiningSeries(signature, random_perturbation(Random(sig + kind), signature.n, kind))
            N = 2 + (s + k) % 4
            cases += [(f"{sig} {kind} N={N} t={t}", segre_system(defn, t), N) for t in (N + 1, N + 2, N + 4)]
    rng = Random(22)
    for n, m, N in [(3, 1, 2), (3, 1, 3), (3, 2, 2), (3, 2, 3), (1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 2, 2)] * 2:
        cases.append((f"random {n}x{m} N={N}", random_first_order_system(rng, n, m), N))
    return cases


def test_generate_determining_matches_reference_on_truncated_and_edge_cases():
    # One assertion, so a failure is cheap to report.
    cases = truncated_and_edge_cases()
    got = [(label, determining_outcome(generated, sys_, N)) for label, sys_, N in cases]
    expected = [(label, determining_outcome(reference_determining, sys_, N)) for label, sys_, N in cases]
    refused = sum(isinstance(outcome, str) for _, outcome in expected)
    assert (first_difference(got, expected), refused) == (None, 16)


def test_distinct_blocks_give_the_rows_of_the_full_spread():
    # Each distinct block of Lie's operator is spread once.  Its distinct
    # rows, compared as sets, must be those of the whole operator spread at
    # once; written out, the blocks must give that spread row for row, and
    # ``row_count`` its number of rows.  One assertion, so a failure is
    # cheap to report.
    cases = truncated_and_edge_cases() + [(f"flat {n}x{m} N=3", flat_system(n, m), 3) for n, m in [(3, 3), (4, 2)]]
    cases += [(f"linearizable {n}x{m} N={N}", linearizable_system(n, m), N) for n, m, N in [(1, 1, 4), (2, 1, 5), (2, 2, 4), (3, 2, 3)]]
    got, expected = [], []
    for label, sys_, N in cases:
        field = UnknownCoefficientField(sys_.ctx, N)
        try:
            det = generate_determining(sys_, field)
        except TruncationOrderError:
            continue
        quad = UnknownCoefficientField(sys_.ctx, 2)
        operator, bounds = lie_operator(sys_, quad.column)
        full = reference_spread(quad, field, operator, bounds, N - 2, _power_factor)
        got.append((label, {frozenset(row.items()) for _, row in det.block_rows()}, written_rows(det), det.row_count))
        expected.append((
            label,
            {frozenset(row.items()) for rows in full.values() for row in rows.values()},
            full,
            sum(len(rows) for rows in full.values()),
        ))
    assert (first_difference(got, expected), len(got)) == (None, len(cases) - 16)


def test_low_degree_unknowns_lead_every_ansatz():
    # The unknowns with |beta| <= 2 are the first columns of every ansatz,
    # in the order of the degree-2 one, so Lie's operator numbered by the
    # degree-N columns is the operator numbered by the degree-2 ones:
    # ``generate_determining`` builds no degree-2 field.
    prefixes = []
    for n, m in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
        ctx = JetContext.create(n, m)
        quad = UnknownCoefficientField(ctx, 2)
        for N in range(2, 6):
            field = UnknownCoefficientField(ctx, N)
            prefixes.append(((n, m, N), field.unknowns[: len(quad.unknowns)] == quad.unknowns))
    got, expected = [], []
    for label, sys_, N in truncated_and_edge_cases():
        field = UnknownCoefficientField(sys_.ctx, N)
        got.append((label, lie_operator(sys_, field.column)))
        expected.append((label, lie_operator(sys_, UnknownCoefficientField(sys_.ctx, 2).column)))
    assert ([key for key, same in prefixes if not same], first_difference(got, expected)) == ([], None)


def test_lie_operator_matches_the_read_off_reference():
    # The closed form against the criterion run on the degree-2 ansatz and
    # inverted: every slot's rows and its truncation bound, on the systems
    # above (the refused ones too: the bounds are what refuses them).
    got, expected = [], []
    for label, sys_, _ in truncated_and_edge_cases():
        quad = UnknownCoefficientField(sys_.ctx, 2)
        got.append((label, lie_operator(sys_, quad.column)))
        expected.append((label, reference_criterion_operator(sys_, quad)))
    assert first_difference(got, expected) is None


def test_criterion_operator_reproduces_the_criterion():
    # The closed-form coefficients, applied to random point fields of
    # degree <= 4 as sum A_{f,beta} d^beta X_f, give the criterion's
    # residuals slot by slot.
    got, expected = [], []
    for seed in range(12):
        rng = Random(seed)
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        sys_ = random_first_order_system(rng, n, m)
        ctx = sys_.ctx
        operator, _ = lie_operator(sys_, lambda f, beta: (f, beta))
        X = random_point_field(rng, ctx, max_terms=8, max_degree=4)
        wvars = [x_var(i) for i in range(1, n + 1)] + [u_var(mu) for mu in range(1, m + 1)]
        for slot, residual in sorted(lie_criterion_check(X, sys_).items()):
            value = Poly.zero(ctx.table)
            for mono, row in operator[slot].items():
                for (f, beta), coeff in row.items():
                    derivative = (X.theta + X.eta)[f]
                    for v, e in zip(wvars, beta):
                        for _ in range(e):
                            derivative = derivative.differentiate(v)
                    value = value + Poly(ctx.table, {mono: coeff}) * derivative
            got.append((seed, slot, value.terms))
            expected.append((seed, slot, residual.terms))
    assert first_difference(got, expected) is None


# -- the second-order layer of the propagator -------------------------------------


def test_solve_second_order_flat():
    sys_ = flat_system(1, 1)
    field = UnknownCoefficientField(sys_.ctx, 2)
    det = generate_determining(sys_, field)
    forms = second_order_forms(det)
    th, et = (THETA, 1), (ETA, 1)
    half = GaussScalar(1) / GaussScalar(2)
    assert forms[(et, (2, 0))] == {}                       # eta_xx = 0
    assert forms[(th, (0, 2))] == {}                       # theta_uu = 0
    assert forms[(et, (1, 1))] == {(th, (2, 0)): half}     # eta_xu = theta_xx / 2
    assert forms[(et, (0, 2))] == {(th, (1, 1)): GaussScalar(2)}  # eta_uu = 2 theta_xu
    # gamma components map to themselves
    assert forms[(th, (2, 0))] == {(th, (2, 0)): ONE}
    assert forms[(th, (1, 1))] == {(th, (1, 1)): ONE}


def test_solve_second_order_zero_data_gives_zero():
    sys_ = flat_system(2, 1)
    det = generate_determining(sys_, UnknownCoefficientField(sys_.ctx, 2))
    # the second layer is solved, so its forms are linear in the initial
    # data and zero data give zero
    assert det.propagator.layers[0].failure is None


def test_solve_second_order_consistent_with_actual_symmetries():
    # For any flat symmetry, its second derivatives at 0 must satisfy the
    # affine forms evaluated on its own lower-order data.
    rng = Random(64)
    for n, m in [(1, 1), (2, 2)]:
        sys_ = flat_system(n, m)
        field = UnknownCoefficientField(sys_.ctx, 2)
        forms = second_order_forms(generate_determining(sys_, field))
        gens = flat_generators(n, m, sys_.ctx).fields
        wvars = [x_var(i) for i in range(1, n + 1)] + [u_var(mu) for mu in range(1, m + 1)]

        def deriv(X, func, beta):
            f = X.theta[func[1] - 1] if func[0] == THETA else X.eta[func[1] - 1]
            for v, e in zip(wvars, beta):
                for _ in range(e):
                    f = f.differentiate(v)
            return f.evaluate({})

        for _ in range(10):
            X = VectorField.zero(sys_.ctx)
            for g in gens:
                X = X + g.scale(GaussScalar(rng.randint(-2, 2)))
            for (func, beta), form in forms.items():
                got = ZERO
                for (pfunc, pbeta), coeff in form.items():
                    got = got + coeff * deriv(X, pfunc, pbeta)
                assert got == deriv(X, func, beta)


def test_symmetry_algebra_minimal_order():
    sys_ = flat_system(1, 1)
    alg = symmetry_algebra(sys_, order=2)
    assert alg.dimension == 8
    assert span_equal(alg.basis, list(flat_generators(1, 1, sys_.ctx)))


def test_segre_hyperquadric_second_order_matches_flat():
    sig = Signature((1,))
    seg = segre_system(DefiningSeries(sig), order=6)
    flat = flat_system(1, 1)
    f1 = UnknownCoefficientField(seg.ctx, 2)
    f2 = UnknownCoefficientField(flat.ctx, 2)
    forms_seg = second_order_forms(generate_determining(seg, f1))
    forms_flat = second_order_forms(generate_determining(flat, f2))
    assert forms_seg == forms_flat


# -- taylor recursion ----------------------------------------------------------


def test_taylor_translation():
    sys_ = flat_system(1, 1)
    om = zero_initial_data(1, 1)
    om = InitialData(om.alpha, om.beta, om.gamma, om.delta, (ONE,))
    X = taylor_from_initial_data(sys_, om, order=3)
    assert X.theta[0] == sys_.ctx.const(1)
    assert X.eta[0].is_zero()


def test_taylor_gamma_slice_builds_projective_field():
    sys_ = flat_system(1, 1)
    om = zero_initial_data(1, 1)
    om = InitialData(om.alpha, om.beta, (GaussScalar(2), ZERO), om.delta, om.epsilon)
    X = taylor_from_initial_data(sys_, om, order=3)
    ctx = sys_.ctx
    assert X.theta[0] == ctx.x(1) * ctx.x(1)
    assert X.eta[0] == ctx.x(1) * ctx.u(1)


def test_taylor_zero_data_zero_field():
    for sys_ in (flat_system(1, 1), flat_system(2, 1), perturbed_segre_system()):
        n, m = sys_.ctx.n, sys_.ctx.m
        X = taylor_from_initial_data(sys_, zero_initial_data(n, m), order=3)
        assert X.is_zero()


def test_taylor_round_trip_flat_generators():
    for n, m in [(1, 1), (2, 1)]:
        sys_ = flat_system(n, m)
        for X in flat_generators(n, m, sys_.ctx):
            om = initial_data_of(X)
            assert taylor_from_initial_data(sys_, om, order=3) == X


def test_taylor_at_nonzero_point():
    sys_ = flat_system(1, 1)
    ctx = sys_.ctx
    pt = {x_var(1): GaussScalar(1), u_var(1): GaussScalar(-2)}
    X = VectorField(ctx, (ctx.x(1) * ctx.x(1),), (ctx.x(1) * ctx.u(1),))
    om = initial_data_of(X, pt)
    assert taylor_from_initial_data(sys_, om, order=3, point=pt) == X


def test_taylor_rejects_inconsistent_layer_data():
    # A non-involutive system makes the recursion contradict itself; with
    # d theta_1 / dx_1 = 1 the contradiction surfaces in the third layer.
    ctx = JetContext.create(2, 1)
    bad = PDESystem(ctx, {(1, 1, 1): ctx.x(2)})
    om = zero_initial_data(2, 1)
    om = InitialData(((ONE, ZERO, ZERO), om.alpha[1]), om.beta, om.gamma, om.delta, om.epsilon)
    with pytest.raises(InconsistentLayerError) as err:
        taylor_from_initial_data(bad, om, order=3)
    assert err.value.layer == 3


def reference_taylor(det, omega):
    """The per-omega layer recursion the propagator replaced: substitute the
    known values into the rows of each layer and solve them afresh."""
    field = det.field
    n, m = field.ctx.n, field.ctx.m
    q = n + m
    zero_alpha = (0,) * q
    known = {}
    for j in range(n):
        known[(COEF, (THETA, j + 1), zero_alpha)] = omega.epsilon[j]
    for k in range(m):
        known[(COEF, (ETA, k + 1), zero_alpha)] = omega.delta[k]
    for l in range(q):
        e_l = tuple(1 if t == l else 0 for t in range(q))
        for j in range(n):
            known[(COEF, (THETA, j + 1), e_l)] = omega.alpha[j][l]
        for k in range(m):
            known[(COEF, (ETA, k + 1), e_l)] = omega.beta[k][l]
    for l, (func, alpha) in enumerate(omega_ids(n, m)[q * q:q * q + q]):
        known[(COEF, func, alpha)] = omega.gamma[l] / GaussScalar(alpha_factorial(alpha))
    for layer in range(2, field.order + 1):
        targets = [cid for cid in field.unknowns if field.layer_of(cid) == layer and cid not in known]
        tidx = {cid: k for k, cid in enumerate(targets)}
        rows, rhs, used = [], [], []
        for prov, row in det.ordered():
            if prov.xu_degree != layer - 2:
                continue
            new_row, acc = {}, ZERO
            for col, v in row.items():
                cid = field.unknowns[col]
                if cid in known:
                    acc = acc + v * known[cid]
                elif cid in tidx:
                    new_row[tidx[cid]] = v
                else:
                    raise InconsistentLayerError(layer, f"row touches unknown {field.label(cid)} outside the layer")
            rows.append(new_row)
            rhs.append(-acc)
            used.append(prov)
        result = solve_linear_exact(LinearSystemExact(rows, rhs, ncols=len(targets)))
        if not result.consistent:
            prov = used[result.inconsistent_row]
            raise InconsistentLayerError(
                layer,
                f"residual (mu={prov.mu}, i={prov.i}, j={prov.j}) at monomial "
                f"{reference_monomial_str(prov.mono, field.table)}",
            )
        if result.null_vectors:
            raise UnderdeterminedLayerError(layer)
        known.update(zip(targets, result.particular))
    return field.field_from_values({c: v for c, cid in enumerate(field.unknowns) if not (v := known.get(cid, ZERO)).is_zero()})


def outcome(run):
    try:
        return run()
    except (InconsistentLayerError, UnderdeterminedLayerError) as exc:
        return (type(exc), exc.layer, str(exc))


@settings(max_examples=budget(30), deadline=None)
@given(
    st.sampled_from([(1, 1, 3), (1, 1, 4), (1, 2, 3), (2, 1, 3), (2, 1, 4), (2, 2, 3)]),
    st.integers(0, 2**32),
    st.data(),
)
def test_propagator_matches_per_omega_recursion(shape, seed, data):
    # Both fields (n = 1) and inconsistent layers (n = 2) occur.
    n, m, order = shape
    sys_ = random_first_order_system(Random(seed), n, m)
    det = generate_determining(sys_, UnknownCoefficientField(sys_.ctx, order))
    dim = InitialData.dimension(n, m)
    scalars = st.sampled_from([ZERO, ZERO, ONE, GaussScalar(-2), GaussScalar(Fraction(1, 3), 1)])
    for _ in range(3):
        omega = InitialData.from_flat(data.draw(st.lists(scalars, min_size=dim, max_size=dim)), n, m)
        expected = outcome(lambda: reference_taylor(det, omega))
        assert outcome(lambda: taylor_from_initial_data(sys_, omega, order=order, det=det)) == expected


def test_taylor_underdetermined_layer():
    # Flat (1,1) at order 2 without the row eta_xx = 0: the second layer
    # then leaves eta_xx free.
    sys_ = flat_system(1, 1)
    full = generate_determining(sys_, UnknownCoefficientField(sys_.ctx, 2))
    prov, row = next(full.ordered())
    assert row == {full.field.col[(COEF, (ETA, 1), (2, 0))]: GaussScalar(2)}
    rows = written_rows(full)
    del rows[(prov.mu, prov.i, prov.j)][prov.mono]
    det = system_of_rows(full.field, rows)
    with pytest.raises(UnderdeterminedLayerError) as err:
        taylor_from_initial_data(sys_, zero_initial_data(1, 1), order=2, det=det)
    assert err.value.layer == 2
    assert str(err.value) == "Taylor layer 2 is not determined (system not involutive?)"
    assert outcome(lambda: reference_taylor(det, zero_initial_data(1, 1))) == (
        UnderdeterminedLayerError, 2, str(err.value)
    )


def test_sweep_reduces_each_layer_once(monkeypatch):
    inserts = []
    original = _Reducer.insert

    def counting(self, row):
        inserts.append(len(row))
        return original(self, row)

    monkeypatch.setattr(_Reducer, "insert", counting)
    sys_ = flat_system(2, 1)
    det = generate_determining(sys_, UnknownCoefficientField(sys_.ctx, 3))
    basis = omega_basis(2, 1)
    taylor_from_initial_data(sys_, basis[0], order=3, det=det)
    first = len(inserts)
    assert 0 < first <= det.row_count
    for om in basis[1:]:
        taylor_from_initial_data(sys_, om, order=3, det=det)
    assert len(inserts) == first


def test_propagator_skips_a_repeated_check_row(monkeypatch):
    # u_11 = u (n = 2) puts conditions on omega at layer 3.  An exact copy of
    # the first of them, after every other row, must raise the reference's
    # error, and the reducer must get the same calls as without the copy.
    # The copy sits in a slot (2, 1, 1) past every residual's (m = 1), at
    # the same monomial, so in the same layer.
    ctx = JetContext.create(2, 1)
    sys_ = PDESystem(ctx, {(1, 1, 1): ctx.u(1)})
    det = generate_determining(sys_, UnknownCoefficientField(ctx, 3))
    step = next(step for step in det.propagator.layers if step.checks)
    prov, form = step.checks[0]
    vec = [ZERO] * InitialData.dimension(2, 1)
    vec[min(form)] = ONE
    omega = InitialData.from_flat(vec, 2, 1)
    rows = written_rows(det)
    row = rows[(prov.mu, prov.i, prov.j)][prov.mono]
    copied = system_of_rows(det.field, {**rows, (2, 1, 1): {prov.mono: dict(row)}})
    seen = {}
    for name in ("reduce", "insert"):
        original = getattr(_Reducer, name)

        def counting(self, row, original=original, name=name):
            seen[name].append(sorted(row))
            return original(self, row)

        monkeypatch.setattr(_Reducer, name, counting)
    calls = []
    for system in (det, copied):
        seen.update(reduce=[], insert=[])
        system.__dict__.pop("propagator", None)
        got = outcome(lambda: taylor_from_initial_data(sys_, omega, order=3, det=system))
        calls.append(dict(seen))
    monkeypatch.undo()
    expected = outcome(lambda: reference_taylor(copied, omega))
    assert (got, calls[1], expected[:2]) == (expected, calls[0], (InconsistentLayerError, step.layer))


def test_symmetry_algebra_orders_no_rows(monkeypatch, tmp_path, capsys):
    # Rows are ordered only where they are read in order: never by
    # symmetry_algebra, once by the ``determining`` command, and once by a
    # propagator however many omegas it evaluates.
    calls = []
    ordered = DeterminingSystem.ordered

    def counting_ordered(self):
        calls.append("ordered")
        return ordered(self)

    monkeypatch.setattr(DeterminingSystem, "ordered", counting_ordered)
    symmetry_algebra(flat_system(2, 1), order=3)
    by_algebra = list(calls)
    calls.clear()
    system = tmp_path / "flat.json"
    system.write_text(json.dumps({"n": 2, "m": 1, "entries": []}), encoding="utf-8")
    rc = main(["determining", "--system", str(system), "--order", "3", "--format", "json"])
    by_command = (rc, json.loads(capsys.readouterr().out)["row_count"], list(calls))
    calls.clear()
    sys_ = flat_system(2, 1)
    det = generate_determining(sys_, UnknownCoefficientField(sys_.ctx, 3))
    fields = [taylor_from_initial_data(sys_, om, order=3, det=det) for om in omega_basis(2, 1)]
    by_propagator = (len(fields), list(calls))
    assert (by_algebra, by_command, by_propagator) == ([], (0, det.row_count, ["ordered"]), (15, ["ordered"]))


def test_symmetry_algebra_spreads_each_distinct_block_once(monkeypatch):
    # Flat (3, 3) at N = 3: Lie's operator has 828 rows, one per block, and
    # 219 distinct blocks; only those are spread.  The full system's 5 796
    # rows are counted from the layout and written out by ``ordered``.
    spread = []
    original = _spread

    def counting(field, blocks, *rest):
        spread.append(sum(len(rows) for rows in blocks.values()))
        return original(field, blocks, *rest)

    monkeypatch.setattr("jetsym.determining._spread", counting)
    alg = symmetry_algebra(flat_system(3, 3), order=3)
    det = alg.determining
    full = sum(len(by_mono) for by_mono in written_rows(det).values())
    assert (spread, alg.dimension, det.row_count, full) == ([219], 48, 5796, 5796)


def test_propagator_values_match_the_dense_forms():
    # The sparse values, in column order, against every form evaluated at
    # omega one by one: each omega basis vector, a zero omega and a Gaussian
    # omega, on systems that put no condition on omega.
    got, expected = [], []
    for sys_, N in [(flat_system(2, 1), 3), (linearizable_system(2, 2), 4)]:
        n, m = sys_.ctx.n, sys_.ctx.m
        prop = generate_determining(sys_, UnknownCoefficientField(sys_.ctx, N)).propagator
        gaussian = [GaussScalar(Fraction(k % 5 - 2, 3), k % 3 - 1) for k in range(InitialData.dimension(n, m))]
        for omega in omega_basis(n, m) + [zero_initial_data(n, m), InitialData.from_flat(gaussian, n, m)]:
            flat = omega.flat()
            dense = [sum((f * flat[k] for k, f in form.items()), ZERO) for form in prop.forms]
            got.append(list(prop.values(omega).items()))
            expected.append([(c, v) for c, v in enumerate(dense) if not v.is_zero()])
    assert first_difference(got, expected) is None


# -- symmetry_algebra ------------------------------------------------------------


def test_flat_dimensions_small():
    for (n, m), dim in [((1, 1), 8), ((2, 1), 15), ((1, 2), 15)]:
        sys_ = flat_system(n, m)
        alg = symmetry_algebra(sys_, order=3)
        assert alg.dimension == dim
        assert span_equal(alg.basis, list(flat_generators(n, m, sys_.ctx)))


@pytest.mark.parametrize(
    "n, F, dimensions",
    [
        (1, lambda c: c.u(1) * c.u(1), [8, 8, 6, 4, 3, 2, 2]),
        (1, lambda c: c.x(1) * c.u(1) * c.u(1), [8, 8, 7, 5, 3, 3, 2, 1, 1]),
        (2, lambda c: c.u(1), [15, 10, 7, 7]),
        (2, lambda c: c.zero(), [15, 15, 15]),
    ],
    ids=["u''=u^2", "u''=x*u^2", "u_11=u", "flat-2x1"],
)
def test_truncated_dimension_tower(n, F, dimensions):
    """``symmetry_algebra(sys, N).dimension`` for N = 2, 3, ... is the
    dimension of the degree-N truncated solution space: an upper bound on
    the symmetry algebra's dimension, not that dimension.  The true algebras
    of u'' = u^2 and u'' = x u^2 have dimension 2 and 1; u_11 = u (n = 2) is
    not involutive.  Each value is also (n+m+2)(n+m) minus the rank of all
    compatibility forms of the Taylor layer recursion."""
    ctx = JetContext.create(n, 1)
    sys_ = PDESystem(ctx, {(1, 1, 1): F(ctx)})
    got, by_forms = [], []
    for N in range(2, 2 + len(dimensions)):
        alg = symmetry_algebra(sys_, N)
        forms = [form for layer in alg.determining.propagator.layers for _, form in layer.checks]
        got.append(alg.dimension)
        by_forms.append(InitialData.dimension(n, 1) - sparse_rank(forms))
    assert got == by_forms == dimensions


def test_dimension_bound_perturbed():
    sys_ = perturbed_segre_system()
    alg = symmetry_algebra(sys_, order=3)
    assert alg.dimension <= InitialData.dimension(1, 1)
    # basis fields satisfy the criterion up to the honest truncation degree:
    # surviving residual terms stem from the dropped Taylor tail and all
    # have (x, u) degree above order - 2
    from jetsym import rings

    for X in alg.basis:
        for r in lie_criterion_check(X, sys_).values():
            for mono in r.terms:
                xu = sum(
                    e
                    for p, e in mono
                    if sys_.ctx.table.ids[p][0] in (rings.X, rings.U)
                )
                assert xu > 3 - 2
    # and round-trip through their own initial data
    for X in alg.basis:
        assert taylor_from_initial_data(sys_, initial_data_of(X), order=3) == X


def test_injectivity_flat_basis_round_trip():
    sys_ = flat_system(1, 1)
    alg = symmetry_algebra(sys_, order=3)
    for X in alg.basis:
        om = initial_data_of(X)
        assert taylor_from_initial_data(sys_, om, order=3) == X


def test_oracle_equivalence_flat():
    for n, m in [(1, 1), (2, 1)]:
        sys_ = flat_system(n, m)
        alg = symmetry_algebra(sys_, order=3)
        field = UnknownCoefficientField(sys_.ctx, 3)
        det = generate_determining(sys_, field)
        recursed = [
            taylor_from_initial_data(sys_, om, order=3, det=det)
            for om in omega_basis(n, m)
        ]
        assert span_equal(recursed, alg.basis)


def test_stability_in_order():
    sys_ = flat_system(1, 1)
    assert symmetry_algebra(sys_, order=3).dimension == 8
    assert symmetry_algebra(sys_, order=4).dimension == 8


def test_symmetry_algebra_at_point():
    sys_ = flat_system(1, 1)
    pt = {x_var(1): GaussScalar(2), u_var(1): GaussScalar(1)}
    alg = symmetry_algebra(sys_, order=3, point=pt)
    assert alg.dimension == 8
    assert span_equal(alg.basis, list(flat_generators(1, 1, sys_.ctx)))


@settings(max_examples=budget(40), deadline=None)
@given(
    st.sampled_from(["random", "flat", "segre"]),
    st.sampled_from([(1, 1, 2), (1, 1, 3), (2, 1, 2), (2, 1, 3), (1, 2, 3)]),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_symmetry_algebra_matches_all_rows_reference(kind, shape, at_point, seed):
    # The basis from each distinct row in generated order against the
    # nullspace of all rows in provenance order; then all rows shuffled,
    # with repeats (a one-entry row repeated at another scale), must give
    # the same solutions, with or without ``_distinct``.  The truncated
    # Segre system has no nonzero base point.  One assertion, so a failure
    # is shrunk once.
    rng = Random(seed)
    n, m, order = shape
    point = None
    if kind == "segre":
        sys_, order = perturbed_segre_system(), 3
    else:
        sys_ = random_first_order_system(rng, n, m) if kind == "random" else flat_system(n, m)
        if at_point:
            point = random_point(rng, [x_var(i) for i in range(1, n + 1)] + [u_var(mu) for mu in range(1, m + 1)])
    got = symmetry_algebra(sys_, order=order, point=point).basis
    field = UnknownCoefficientField(sys_.ctx, order)
    rows = [row for _, row in generate_determining(sys_, field).ordered()]
    repeats = [
        {c: v * GaussScalar(rng.choice([1, -2, 3])) for c, v in row.items()} if len(row) == 1 else dict(row)
        for row in rng.choices(rows, k=len(rows) // 2 + 1)
    ] if rows else []
    mixed = rows + repeats
    rng.shuffle(mixed)
    solutions = field.solutions(rows)
    mixed_solutions = [field.solutions(mixed), field.solutions([row for _, row in _distinct(enumerate(mixed))])]
    expected = reference_symmetry_algebra(sys_, order, point)
    assert first_difference([got, *mixed_solutions], [expected, solutions, solutions]) is None


# -- initial data plumbing ---------------------------------------------------------


def test_initial_data_flat_round_trip():
    rng = Random(31415)
    for n, m in [(1, 1), (2, 2)]:
        dim = InitialData.dimension(n, m)
        values = [GaussScalar(rng.randint(-3, 3)) for _ in range(dim)]
        om = InitialData.from_flat(values, n, m)
        assert om.flat() == values


def test_initial_data_length_check():
    with pytest.raises(ValueError):
        InitialData.from_flat([ZERO] * 7, 1, 1)


def test_initial_data_of_projective_field():
    ctx = JetContext.create(1, 1)
    X = VectorField(ctx, (ctx.x(1) * ctx.x(1),), (ctx.x(1) * ctx.u(1),))
    om = initial_data_of(X)
    assert om.gamma == (GaussScalar(2), ZERO)
    assert om.alpha == ((ZERO, ZERO),)
    assert om.beta == ((ZERO, ZERO),)
    assert om.delta == (ZERO,)
    assert om.epsilon == (ZERO,)


# -- base-point shift and labels against the code they replaced -----------------------


def shift_outcome(run):
    """[(terms, bound)] of each polynomial of the result, or the message of a
    ValueError."""
    try:
        result = run()
    except ValueError as exc:
        return str(exc)
    polys = list(result.entries.values()) if isinstance(result, PDESystem) else result.theta + result.eta
    return [(f.terms, f.bound) for f in polys]


@settings(max_examples=budget(150), deadline=None)
@given(st.integers(0, 2**32))
def test_base_point_shifts_match_per_polynomial_reference(seed):
    # Exact and truncated entries with exponents 1 and above; int, scalar
    # and zero coordinates.  A system with a truncated entry must be refused
    # at any nonzero point; every other outcome must match the reference.
    rng = Random(seed)
    n, m = rng.choice([(1, 1), (2, 1), (1, 2)])
    ctx = JetContext.create(n, m)
    xu = [x_var(i) for i in range(1, n + 1)] + [u_var(mu) for mu in range(1, m + 1)]
    vids = xu + [jet_var(mu, (i,)) for mu in range(1, m + 1) for i in range(1, n + 1)]
    entries = {
        (k, i, j): random_poly(rng, ctx.table, vids, max_terms=5, max_degree=4).truncate(
            rng.choice([None, None, None, 4, 7])
        )
        for k in range(1, m + 1)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    }
    sys_ = PDESystem(ctx, entries)
    point = random_point(rng, xu)
    X = random_point_field(rng, ctx, max_terms=8, max_degree=4)
    got = [shift_outcome(lambda: sys_.translated(point)), shift_outcome(lambda: _shift_field(X, point))]
    expected = [
        shift_outcome(lambda: reference_translated(sys_, point)),
        shift_outcome(lambda: reference_shift_field(X, point)),
    ]
    if any(f.bound is not None for f in sys_.entries.values()) and any(v not in (0, ZERO) for v in point.values()):
        expected[0] = "a truncated system cannot be recentred at a nonzero base point"
    assert first_difference(got, expected) is None


@settings(max_examples=budget(20), deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(2, 4))
def test_labels_match_reference(n, m, order):
    field = UnknownCoefficientField(JetContext.create(n, m), order)
    got = [field.label(cid) for cid in field.unknowns]
    assert first_difference(got, [reference_label(field, cid) for cid in field.unknowns]) is None
