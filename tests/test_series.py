from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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

from helpers import budget


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


small_ints = st.integers(-2, 2)


@st.composite
def implicit_systems(draw):
    """1 or 2 unknowns z_k in the remaining variables x, y of weight 1 or 2:
    a random linear part in z (a singular one must be refused) plus terms of
    degree >= 2 or linear in x and y."""
    k = draw(st.integers(1, 2))
    names = [f"z{i}" for i in range(k)] + ["x", "y"]
    weights = (1,) * k + tuple(draw(st.lists(st.integers(1, 2), min_size=2, max_size=2)))
    t = VarTable(tuple((AUX, n) for n in names), weights)
    variables = [Poly.var(t, (AUX, n)) for n in names]
    J = draw(st.lists(st.lists(small_ints, min_size=k, max_size=k), min_size=k, max_size=k))
    equations = []
    for i in range(k):
        g = Poly.zero(t)
        for j in range(k):
            g = g + variables[j].scale(GaussScalar(J[i][j]))
        for _ in range(draw(st.integers(0, 4))):
            exps = draw(st.lists(st.integers(0, 2), min_size=k + 2, max_size=k + 2))
            if sum(exps) == 0 or (sum(exps) == 1 and any(exps[:k])):
                continue
            term = Poly.const(t, GaussScalar(draw(small_ints), draw(st.sampled_from([0, 0, 1]))))
            for var, e in zip(variables, exps):
                term = term * var ** e
            g = g + term
        equations.append(g)
    return equations, [(AUX, f"z{i}") for i in range(k)]


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
    for v in unknowns:
        assert got[v] == expected[v]
        assert got[v].bound == expected[v].bound == order
