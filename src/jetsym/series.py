"""Implicit solving of polynomial/series systems: given G(zeta, y) = 0 with an
invertible Jacobian in the unknowns, expand zeta as a truncated power series
in the remaining variables.

The iteration is simplified Newton with the constant Jacobian at the base
point; each sweep gains at least one degree of accuracy, so ``order`` sweeps
suffice.  The result is verified by back-substitution before it is returned.
"""

from __future__ import annotations

from .linalg import span_coordinates
from .poly import Poly
from .scalars import GaussScalar, ZERO, ONE


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


def implicit_series_solve(equations, unknowns, order: int, base: dict | None = None):
    """Solve G = 0 for the unknowns as series in the remaining variables.

    equations: list of Poly, all over one table, as many as unknowns.
    unknowns:  list of variable ids to solve for.
    order:     total-degree truncation of the result.
    base:      optional {variable id: GaussScalar} base point (default origin).
               With a nonzero base the equations are shifted internally and
               the returned series are centered at the base, i.e. written in
               offsets of the remaining variables from their base values.

    Returns {unknown id: Poly} with G(solution) == 0 up to the effective
    truncation order (the minimum of ``order`` and the equations' bounds).
    """
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

    base = dict(base) if base else {}
    base = {v: val if isinstance(val, GaussScalar) else GaussScalar(val) for v, val in base.items()}
    base_unknown = {v: base.get(v, ZERO) for v in unknowns}
    shifted = []
    nontrivial_shift = {v: val for v, val in base.items() if not val.is_zero()}
    for g in equations:
        if nontrivial_shift:
            g = g.substitute(
                {v: Poly.var(table, v) + Poly.const(table, val) for v, val in nontrivial_shift.items()}
            )
        shifted.append(g)

    for idx, g in enumerate(shifted):
        if not g.evaluate({}).is_zero():
            raise InconsistentBaseError(f"equation {idx + 1} does not vanish at the base point")

    jac = [
        [g.differentiate(v).evaluate({}) for v in unknowns]
        for g in shifted
    ]
    jac_inv = _invert_matrix(jac)

    current = {v: Poly.zero(table, eff_order) for v in unknowns}
    for _ in range(eff_order + 1):
        residuals = [g.substitute(current).truncate(eff_order) for g in shifted]
        if all(r.is_zero() for r in residuals):
            break
        for k, v in enumerate(unknowns):
            corr = Poly.zero(table, eff_order)
            for i, r in enumerate(residuals):
                corr = corr + r.scale(jac_inv[k][i])
            current[v] = (current[v] - corr).truncate(eff_order)

    residuals = [g.substitute(current).truncate(eff_order) for g in shifted]
    for idx, r in enumerate(residuals):
        if not r.is_zero():
            raise ArithmeticError(
                f"implicit solve failed back-substitution at equation {idx + 1}"
            )

    out = {}
    for v in unknowns:
        s = current[v]
        c0 = base_unknown[v]
        out[v] = s + Poly.const(table, c0, s.bound) if not c0.is_zero() else s
    return out
