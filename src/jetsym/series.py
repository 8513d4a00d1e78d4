"""Implicit solving of polynomial/series systems: given G(zeta, y) = 0 with an
invertible Jacobian in the unknowns, expand zeta as a truncated power series
in the remaining variables.

The solution is built one homogeneous layer at a time by a relaxed recursion
(van der Hoeven, "Relax, but don't be too lazy", 2002) with the constant
Jacobian J at the base point, read off the equations' own terms: the entry
for equation g and unknown v is the coefficient of the monomial v alone.
Each equation is split once into terms c * kept * pattern, where ``kept``
is a monomial in the remaining variables, of degree k, and
``pattern`` a product of powers of the unknowns.
Sweep b = 1 .. order forms only the degree-b layer of the residual,

    r_b = sum of c * kept * layer(pattern, b - k),

without the linear terms of kept degree 0: they form J zeta, and their
layer b is the one being solved, so zeta_b = -J^-1 r_b, summed over the
nonzero entries of J^-1 only.  Here
layer(pattern, d) is the degree-d part of the pattern's product of series.
For a single unknown it is that unknown's layer d; for a power or a product
of several unknowns it is the convolution of a head and a tail layer, held
in a memo for the whole solve.  Every unknown vanishes at the origin, so
these read only layers below b, which are final: each product is formed
once over all sweeps, not once per sweep and equation as a substitution of
the whole series would (the cost model of Brent and Kung, "Fast algorithms
for manipulating formal power series", J. ACM 1978).

The result is verified by a back-substitution at the full order before it
is returned, which catches any case where the layers do not close.  The
check substitutes the series into all equations in one ``substitute_all``
call, so each power of an unknown that several equations name is formed
once for all of them.  It reads nothing from the memo of the sweeps.
"""

from __future__ import annotations

from .linalg import span_coordinates
from .poly import Poly, _add_into, mono_degree, substitute_all
from .rings import check_size
from .scalars import GaussScalar, ONE, ZERO


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


class _PatternLayers:
    """layer(pattern, d) of the module docstring.  ``solved[p]`` lists the
    final layers 0, 1, .. of the unknown at position p; the layers of powers
    and products are memoized for the life of this object."""

    def __init__(self, table, positions):
        self.table = table
        self.zero, self.one = Poly.zero(table), Poly.const(table, ONE)
        self.solved = {p: [self.zero] for p in positions}  # every unknown vanishes at 0
        self.memo: dict[tuple, Poly] = {}

    def __call__(self, pattern, d: int) -> Poly:
        if not pattern:
            return self.one if d == 0 else self.zero
        if d < mono_degree(pattern):
            return self.zero
        (p, e), rest = pattern[0], pattern[1:]
        if e == 1 and not rest:
            return self.solved[p][d]  # an IndexError here would read a layer not yet final
        out = self.memo.get((pattern, d))
        if out is None:
            head, tail = (pattern[:1], rest) if rest else (((p, 1),), ((p, e - 1),))
            acc: dict = {}
            for j in range(mono_degree(head), d - mono_degree(tail) + 1):
                _add_into(acc, (self(head, j) * self(tail, d - j)).terms)
            out = self.memo[(pattern, d)] = Poly(self.table, acc)
        return out


def _relaxed_layers(equations, unknowns, jac_inv, order: int) -> dict:
    """The layers 1 .. order of the solution, summed into one Poly of bound
    ``order`` per unknown (see the module docstring).  The pattern layers
    are dropped when this returns."""
    table = equations[0].table
    positions = [table.index(v) for v in unknowns]
    unknown = set(positions)
    # Each equation as (pattern, kept degree k, kept part of that degree).
    split = []
    for g in equations:
        parts: dict[tuple, dict] = {}
        for mono, c in g.terms.items():
            kept = tuple(pe for pe in mono if pe[0] not in unknown)
            pattern = tuple(pe for pe in mono if pe[0] in unknown)
            k = mono_degree(kept)
            if k == 0 and len(pattern) == 1 and pattern[0][1] == 1:
                continue  # a Jacobian entry
            parts.setdefault((pattern, k), {})[kept] = c
        split.append([(pattern, k, Poly(table, kept)) for (pattern, k), kept in parts.items()])

    layer = _PatternLayers(table, positions)
    terms = 0  # in the layers solved so far, over every unknown
    for b in range(1, order + 1):
        check_size("series solution", terms)
        residuals = []
        for parts in split:
            acc = {}
            for pattern, k, kept in parts:
                if k <= b:
                    _add_into(acc, (kept * layer(pattern, b - k)).terms)
            residuals.append(Poly(table, acc))
        for row, p in zip(jac_inv, positions):
            acc = {}
            for s, r in zip(row, residuals):
                if not s.is_zero():
                    _add_into(acc, r.scale(-s).terms)
            layer.solved[p].append(Poly(table, acc))
            terms += len(acc)

    return {
        v: Poly(table, {m: c for lay in layer.solved[p] for m, c in lay.terms.items()}, order)
        for v, p in zip(unknowns, positions)
    }


def implicit_series_solve(equations, unknowns, order: int):
    """Solve G = 0 for the unknowns as series in the remaining variables,
    centered at the origin, where G must vanish.

    equations: list of Poly, all over one table, as many as unknowns.
    unknowns:  list of variable ids to solve for.
    order:     total-degree truncation of the result.

    Returns {unknown id: Poly} with G(solution) == 0 up to the effective
    truncation order (the minimum of ``order`` and the equations' bounds).

    Sweep b forms only the degree-b layer of the residual, from the layers
    below b, and solves it for layer b of every unknown.  A memo holds the
    layers of the powers and products of the unknowns that the equations
    name, so each is formed once; it is dropped before the whole series is
    substituted back into every equation at the full order, in one call that
    shares the powers of the unknowns across the equations, which raises
    ArithmeticError if any equation does not vanish.  A solve whose terms
    so far pass ``rings.MAX_SIZE`` before a sweep raises ValueError.
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
    positions = [table.index(v) for v in unknowns]

    eff_order = order
    for g in equations:
        if g.bound is not None:
            eff_order = min(eff_order, g.bound)

    for idx, g in enumerate(equations):
        if not g.constant_term().is_zero():
            raise InconsistentBaseError(f"equation {idx + 1} does not vanish at the base point")

    # d g / d v at the origin is the coefficient of the monomial v alone.
    jac = [[g.terms.get(((p, 1),), ZERO) for p in positions] for g in equations]
    jac_inv = _invert_matrix(jac)

    current = _relaxed_layers(equations, unknowns, jac_inv, eff_order)

    for idx, r in enumerate(substitute_all(equations, current)):
        if not r.truncate(eff_order).is_zero():
            raise ArithmeticError(
                f"implicit solve failed back-substitution at equation {idx + 1}"
            )
    return current
