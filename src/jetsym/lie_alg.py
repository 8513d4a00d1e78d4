"""Lie brackets of point fields, span and closure computations, and the
explicit polynomial generator basis of the flat system's symmetry algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jets import JetContext
from .linalg import span_coordinates, sparse_rank
from .poly import coefficient_rows
from .prolong import VectorField
from .rings import check_size


def bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Commutator [X, Y]: apply X to Y's coefficients minus Y to X's.

    Each field's derivation vector is built once and derives every
    component; a zero component (most of them, for the sparse generators
    of a closure check) is derived at no cost.
    """
    if X.table is not Y.table or X.coords != Y.coords:
        raise ValueError("fields must share a table and coordinates")
    vx, vy = X.vector(), Y.vector()
    comps = [g.derivation(vx) - f.derivation(vy) for f, g in zip(X.coeffs, Y.coeffs)]
    return VectorField.on(X.table, X.coords, comps, X.ctx)


def field_rows(fields):
    """Sparse coefficient vectors of the fields, and their column count.

    Columns are (coefficient slot, monomial) pairs, numbered in the order
    they are first met; they cover exactly the monomials present in the
    given fields.  Nothing is sorted: ranks do not depend on the column
    order, nor do the coordinates of a vector in an independent basis.
    """
    return coefficient_rows([X.coeffs for X in fields])


def span_dimension(fields) -> int:
    rows, _ = field_rows(list(fields))
    return sparse_rank(rows)


def span_equal(fields_a, fields_b) -> bool:
    """Exact equality of the spans of two field families."""
    fields_a = list(fields_a)
    fields_b = list(fields_b)
    ra = span_dimension(fields_a)
    rb = span_dimension(fields_b)
    if ra != rb:
        return False
    return span_dimension(fields_a + fields_b) == ra


class FieldBasis:
    """A linearly independent family of polynomial point fields."""

    def __init__(self, fields, names=None):
        self.fields: list[VectorField] = list(fields)
        self.names = list(names) if names is not None else [f"X{k+1}" for k in range(len(self.fields))]
        if len(self.names) != len(self.fields):
            raise ValueError("names must match fields")
        rows, _ = field_rows(self.fields)
        if sparse_rank(rows) != len(self.fields):
            raise ValueError("fields are linearly dependent")

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)


def flat_generators(n: int, m: int, ctx: JetContext | None = None) -> FieldBasis:
    """The (n+m+2)(n+m) polynomial fields generating the symmetry algebra of
    the flat system (all second derivatives zero).

    The algebra is sl(n+m+1) acting on (x, u) by projective fields: the
    fields w d/dv for w in (1, x, u) and v in (x, u), then the fields w E for
    w in (x, u), with E = sum_k x_k d/dx_k + sum_mu u^mu d/du^mu the Euler
    field.  In that order, they are named

        U_k = d/dx_k                         V_mu = d/du^mu
        W_jk = x_j d/dx_k                    A_jk = u^j d/dx_k
        B_kmu = x_k d/du^mu                  C_kmu = u^k d/du^mu
        X_j = x_j E                          Y_nu = u^nu E

    The two indices of W, A, B and C are joined by "_" when either is 10 or
    more (W1_11, W11_1), so every name is unique.
    """
    check_size("flat generator list", (n + m + 2) * (n + m))
    if ctx is None:
        ctx = JetContext.create(n, m)
    if ctx.n != n or ctx.m != m:
        raise ValueError("context shape mismatch")
    coords = [ctx.x(k) for k in range(1, n + 1)] + [ctx.u(mu) for mu in range(1, m + 1)]
    zero = ctx.zero()
    # (index label, w) for w = 1, for w in x and for w in u.
    one = [("", ctx.const(1))]
    xs = [(str(j), w) for j, w in enumerate(coords[:n], 1)]
    us = [(str(j), w) for j, w in enumerate(coords[n:], 1)]
    x_slots, u_slots = range(n), range(n, n + m)
    named = []  # (name, coefficients in (x, u) order)
    for letter, ws, slots in (
        ("U", one, x_slots), ("V", one, u_slots), ("W", xs, x_slots),
        ("A", us, x_slots), ("B", xs, u_slots), ("C", us, u_slots),
    ):
        for label, w in ws:
            for b, slot in enumerate(slots, 1):
                sep = "_" if label and (len(label) > 1 or b >= 10) else ""
                named.append((f"{letter}{label}{sep}{b}", [w if s == slot else zero for s in range(n + m)]))
    for letter, ws in (("X", xs), ("Y", us)):
        named += [(f"{letter}{label}", [w * v for v in coords]) for label, w in ws]
    return FieldBasis([VectorField(ctx, c[:n], c[n:]) for _, c in named], [name for name, _ in named])


@dataclass
class ClosureResult:
    closes: bool
    structure_constants: dict  # (a, b) with a < b -> tuple of coefficients
    failure: tuple | None = None  # (a, b, residual VectorField)

    def __bool__(self) -> bool:
        return self.closes


def closure_check(basis: FieldBasis) -> ClosureResult:
    """Expand every pairwise bracket in the basis, exactly.

    Returns the structure constants, or the first pair whose bracket falls
    outside the span together with the bracket itself.  One frame covers the
    basis and all brackets, and the basis is reduced once for every pair.
    The d(d-1)/2 pairs pass ``rings.check_size`` before any bracket is formed.
    """
    fields = basis.fields
    d = len(fields)
    check_size("closure bracket list", d * (d - 1) // 2)
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    brackets = [bracket(fields[a], fields[b]) for a, b in pairs]
    rows, ncols = field_rows(fields + brackets)
    constants = {}
    coords = span_coordinates(rows[:d], rows[d:], ncols)
    for (a, b), br, c in zip(pairs, brackets, coords):
        if c is None:
            return ClosureResult(False, constants, failure=(a, b, br))
        constants[(a, b)] = tuple(c)
    return ClosureResult(True, constants)
