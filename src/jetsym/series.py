"""Implicit solving of polynomial/series systems: given G(zeta, y) = 0 with an
invertible Jacobian in the unknowns, expand zeta as a truncated power series
in the remaining variables.

The solution is built one degree layer at a time (the relaxed update of van
der Hoeven, "Relax, but don't be too lazy", 2002) with the constant Jacobian
J at the base point.  Sweep b = 1 .. order substitutes the series known so
far, truncated at b, into the equations at bound b.  The series is exact
below degree b, so that residual is its degree-b layer, and subtracting
J^-1 times the layer completes degree b.  A sweep therefore costs products
at bound b, not at the full order.

This needs the remaining variables to have positive weight: a weight-0
variable lets lower layers reappear in later residuals.  The result is
verified by a back-substitution at the full order before it is returned,
which catches any case where the layers do not close.
"""

from __future__ import annotations

from .linalg import span_coordinates
from .poly import Poly
from .scalars import GaussScalar, ONE


class SingularJacobianError(ValueError):
    """The implicit function theorem does not apply at the base point."""


class InconsistentBaseError(ValueError):
    """G does not vanish at the proposed base point."""


def _invert_matrix(rows: list[list[GaussScalar]]) -> list[list[GaussScalar]]:
    """Inverse of a square matrix from one reduction of (J | I): row i of the
    inverse is the coordinate vector of the unit vector e_i in the row space
    of J, and some e_i falls outside that space exactly when J is singular."""
    k = len(rows)
    sparse = [{c: v for c, v in enumerate(row) if not v.is_zero()} for row in rows]
    inverse = list(span_coordinates(sparse, [{i: ONE} for i in range(k)], k))
    if any(row is None for row in inverse):
        raise SingularJacobianError("Jacobian with respect to the unknowns is singular")
    return inverse


def implicit_series_solve(equations, unknowns, order: int):
    """Solve G = 0 for the unknowns as series in the remaining variables,
    centered at the origin, where G must vanish.

    equations: list of Poly, all over one table, as many as unknowns.
    unknowns:  list of variable ids to solve for.
    order:     total-degree truncation of the result.

    Returns {unknown id: Poly} with G(solution) == 0 up to the effective
    truncation order (the minimum of ``order`` and the equations' bounds).
    """
    if order < 0:
        raise ValueError(f"series order must be nonnegative, got {order}")
    if len(equations) != len(unknowns):
        raise ValueError("need exactly one equation per unknown")
    if not equations:
        return {}
    table = equations[0].table
    for g in equations:
        if g.table is not table:
            raise ValueError("equations must share one variable table")
    for v in unknowns:
        table.index(v)

    eff_order = order
    for g in equations:
        if g.bound is not None:
            eff_order = min(eff_order, g.bound)

    for idx, g in enumerate(equations):
        if not g.evaluate({}).is_zero():
            raise InconsistentBaseError(f"equation {idx + 1} does not vanish at the base point")

    jac = [
        [g.differentiate(v).evaluate({}) for v in unknowns]
        for g in equations
    ]
    jac_inv = _invert_matrix(jac)

    current = {v: Poly.zero(table, eff_order) for v in unknowns}
    for b in range(1, eff_order + 1):
        # The residual at bound b is the degree-b layer (see the module
        # docstring); taken as exact, it leaves current's bound as it is.
        below = {v: s.truncate(b) for v, s in current.items()}
        layers = [Poly(table, g.substitute(below).truncate(b).terms) for g in equations]
        for k, v in enumerate(unknowns):
            corr = Poly.zero(table)
            for i, r in enumerate(layers):
                corr = corr + r.scale(jac_inv[k][i])
            current[v] = current[v] - corr

    residuals = [g.substitute(current).truncate(eff_order) for g in equations]
    for idx, r in enumerate(residuals):
        if not r.is_zero():
            raise ArithmeticError(
                f"implicit solve failed back-substitution at equation {idx + 1}"
            )
    return current
