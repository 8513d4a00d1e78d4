from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from jetsym import series
from jetsym.linalg import sparse_rank
from jetsym.poly import Poly
from jetsym.rings import AUX, VarTable, jet_var, zeta_var
from jetsym.scalars import ONE, ZERO, GaussScalar
from jetsym.segre import defining_table
from jetsym.series import (
    InconsistentBaseError,
    SingularJacobianError,
    _invert_matrix,
    implicit_series_solve,
)

from helpers import budget, resubstitution_series_solve


def plain_table(*names):
    return VarTable(tuple((AUX, n) for n in names))


def test_identity_case():
    t = plain_table("zz", "x")
    zz, x = Poly.var(t, (AUX, "zz")), Poly.var(t, (AUX, "x"))
    sol = implicit_series_solve([zz - x], [(AUX, "zz")], 4)
    assert sol[(AUX, "zz")] == x


def test_hyperquadric_linear_case():
    # u_x + zeta = 0 in the first-jet variable: zeta = -u_x
    t = defining_table(1)
    p = Poly.var(t, jet_var(1, (1,)))
    z1 = Poly.var(t, zeta_var(1))
    sol = implicit_series_solve([p + z1], [zeta_var(1)], 4)
    assert sol[zeta_var(1)] == -p


def _catalan_fixed_point(order):
    """Independent oracle: iterate zeta <- x + zeta^2 as plain dict series in x."""
    coeffs = {0: Fraction(0)}
    for _ in range(order + 1):
        new = {1: Fraction(1)}
        for a, ca in coeffs.items():
            for b, cb in coeffs.items():
                if a + b <= order:
                    new[a + b] = new.get(a + b, Fraction(0)) + ca * cb
        coeffs = {k: v for k, v in new.items() if v and k <= order}
    return coeffs


def test_quadratic_case_matches_fixed_point_oracle():
    t = plain_table("zz", "x")
    zz, x = Poly.var(t, (AUX, "zz")), Poly.var(t, (AUX, "x"))
    sol = implicit_series_solve([zz - x - zz * zz], [(AUX, "zz")], 4)[(AUX, "zz")]
    expected = _catalan_fixed_point(4)
    got = {}
    for mono, c in sol.terms.items():
        assert len(mono) == 1
        got[mono[0][1]] = c.re
        assert c.im == 0
    assert got == expected  # x + x^2 + 2x^3 + 5x^4


def test_back_substitution_property():
    t = plain_table("a", "b", "x", "y")
    a, b = Poly.var(t, (AUX, "a")), Poly.var(t, (AUX, "b"))
    x, y = Poly.var(t, (AUX, "x")), Poly.var(t, (AUX, "y"))
    eqs = [a - x - b * b, b - y - a * x]
    sol = implicit_series_solve(eqs, [(AUX, "a"), (AUX, "b")], 6)
    for g in eqs:
        assert g.substitute(sol).truncate(6).is_zero()


def test_singular_jacobian():
    t = plain_table("zz", "x")
    zz, x = Poly.var(t, (AUX, "zz")), Poly.var(t, (AUX, "x"))
    with pytest.raises(SingularJacobianError):
        implicit_series_solve([zz * zz - x], [(AUX, "zz")], 3)


def test_inconsistent_base():
    t = plain_table("zz", "x")
    zz = Poly.var(t, (AUX, "zz"))
    one = Poly.const(t, GaussScalar(1))
    with pytest.raises(InconsistentBaseError):
        implicit_series_solve([zz + one], [(AUX, "zz")], 3)


def test_nonzero_base_for_unknown():
    # zz^2 - 1 - x = 0 with zz(0) = 1: zz = 1 + x/2 - x^2/8 + ...  The shift
    # y = zz - 1 moves the branch to the origin: (y + 1)^2 - 1 - x = 0.
    t = plain_table("y", "x")
    y, x = Poly.var(t, (AUX, "y")), Poly.var(t, (AUX, "x"))
    one = Poly.const(t, GaussScalar(1))
    sol = one + implicit_series_solve([(y + one) * (y + one) - one - x], [(AUX, "y")], 3)[(AUX, "y")]
    expected = (
        one
        + x.scale(GaussScalar(Fraction(1, 2)))
        + (x * x).scale(GaussScalar(Fraction(-1, 8)))
        + (x * x * x).scale(GaussScalar(Fraction(1, 16)))
    )
    assert sol == expected


# -- Jacobian inverse ---------------------------------------------------------------

entries = st.builds(
    lambda a, b, c: GaussScalar(Fraction(a, b), c),
    st.integers(-2, 2),
    st.integers(1, 2),
    st.sampled_from([0, 0, 1]),
)


@settings(max_examples=budget(150), deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k
)))
def test_invert_matrix(J):
    k = len(J)
    if sparse_rank({c: v for c, v in enumerate(row) if not v.is_zero()} for row in J) < k:
        with pytest.raises(SingularJacobianError):
            _invert_matrix(J)
        return
    inv = _invert_matrix(J)
    for i in range(k):
        for j in range(k):
            entry = ZERO
            for t in range(k):
                entry = entry + inv[i][t] * J[t][j]
            assert entry == (ONE if i == j else ZERO)


# -- layered solve against full re-substitution ------------------------------------


def full_resubstitution_solve(equations, unknowns, order):
    """Simplified Newton that re-substitutes the whole series at the full
    bound in each of up to order + 1 sweeps."""
    table = equations[0].table
    order = min([order] + [g.bound for g in equations if g.bound is not None])
    jac_inv = _invert_matrix([[g.differentiate(v).evaluate({}) for v in unknowns] for g in equations])
    current = {v: Poly.zero(table, order) for v in unknowns}
    for _ in range(order + 1):
        residuals = [g.substitute(current).truncate(order) for g in equations]
        if all(r.is_zero() for r in residuals):
            break
        for k, v in enumerate(unknowns):
            corr = Poly.zero(table, order)
            for i, r in enumerate(residuals):
                corr = corr + r.scale(jac_inv[k][i])
            current[v] = (current[v] - corr).truncate(order)
    return current


def random_scalar_coefficient(rng):
    return GaussScalar(rng.randint(-2, 2), rng.choice([0, 0, 1]))


def random_implicit_system(rng):
    """1 to 3 unknowns z_k in the remaining variables x, y: a random linear
    part in z (a singular one must be refused) and in x, y; terms of degree
    >= 2 with exponents up to 3; in about half of the equations a product of
    two unknowns whose kept part is 1, x or y; and in about a third a
    truncation bound, which may lie below the order."""
    k = rng.randint(1, 3)
    names = [f"z{i}" for i in range(k)] + ["x", "y"]
    t = plain_table(*names)
    variables = [Poly.var(t, (AUX, n)) for n in names]
    zs = variables[:k]
    equations = []
    for _ in range(k):
        g = Poly.zero(t)
        for var in variables:
            g = g + var.scale(GaussScalar(rng.randint(-2, 2)))
        for _ in range(rng.randint(0, 4)):
            exps = [rng.choice([0, 0, 1, 2, 3]) for _ in names]
            if sum(exps) < 2:
                continue
            term = Poly.const(t, random_scalar_coefficient(rng))
            for var, e in zip(variables, exps):
                term = term * var ** e
            g = g + term
        if rng.random() < 0.5:
            kept = rng.choice([Poly.const(t, ONE)] + variables[k:])
            g = g + (rng.choice(zs) * rng.choice(zs) * kept).scale(random_scalar_coefficient(rng))
        if rng.random() < 0.3:
            g = g.truncate(rng.randint(1, 4))
        equations.append(g)
    return equations, [(AUX, f"z{i}") for i in range(k)]


def implicit_systems():
    """Systems from ``random_implicit_system``; hypothesis draws only the
    seed, so a failing example is cheap to shrink."""
    return st.integers(0, 2**32).map(lambda seed: random_implicit_system(Random(seed)))


@settings(max_examples=budget(80), deadline=None)
@given(implicit_systems(), st.integers(1, 5))
def test_layered_solve_matches_full_resubstitution(system, order):
    equations, unknowns = system
    try:
        expected = full_resubstitution_solve(equations, unknowns, order)
    except SingularJacobianError:
        with pytest.raises(SingularJacobianError):
            implicit_series_solve(equations, unknowns, order)
        return
    got = implicit_series_solve(equations, unknowns, order)
    effective = min([order] + [g.bound for g in equations if g.bound is not None])
    for v in unknowns:
        assert got[v] == expected[v]
        assert got[v].bound == expected[v].bound == effective


def solve_outcome(solve, equations, unknowns, order):
    """Each unknown's (terms, bound), or the type and message of the error."""
    try:
        solution = solve(equations, unknowns, order)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [(solution[v].terms, solution[v].bound) for v in unknowns]


@settings(max_examples=budget(150), deadline=None)
@given(implicit_systems(), st.integers(0, 6))
def test_relaxed_solve_matches_resubstitution_reference(system, order):
    # One assertion, so a failure is shrunk once.
    equations, unknowns = system
    assert solve_outcome(implicit_series_solve, equations, unknowns, order) == solve_outcome(
        resubstitution_series_solve, equations, unknowns, order
    )


def test_back_substitution_refuses_a_corrupted_layer(monkeypatch):
    # The layers of z - x - z^2 = 0 with x^2 added to the solved series: the
    # full-order back-substitution must refuse the result.
    t = plain_table("z", "x")
    z, x = (Poly.var(t, (AUX, n)) for n in ("z", "x"))
    relaxed = series._relaxed_layers

    def corrupted(*args):
        layers = relaxed(*args)
        return {v: f + (x * x).truncate(f.bound) for v, f in layers.items()}

    monkeypatch.setattr(series, "_relaxed_layers", corrupted)
    with pytest.raises(ArithmeticError, match="^implicit solve failed back-substitution at equation 1$"):
        implicit_series_solve([z - x - z * z], [(AUX, "z")], 4)
