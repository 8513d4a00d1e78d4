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
    if X.ctx.table is not Y.ctx.table:
        raise ValueError("fields must share a context")
    vx, vy = X.vector(), Y.vector()
    comps = [g.derivation(vx) - f.derivation(vy) for f, g in zip(X.theta + X.eta, Y.theta + Y.eta)]
    n = X.ctx.n
    return VectorField(X.ctx, comps[:n], comps[n:])


def field_rows(fields):
    """Sparse coefficient vectors of the fields in a shared monomial frame.

    Columns are (coefficient slot, monomial) pairs; the frame covers exactly
    the monomials present in the given fields, ordered degree first.
    """
    return coefficient_rows([X.theta + X.eta for X in fields])


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
    the flat system (all second derivatives zero):

        U_k = d/dx_k                         V_mu = d/du^mu
        W_jk = x_j d/dx_k                    A_jk = u^j d/dx_k
        B_kmu = x_k d/du^mu                  C_kmu = u^k d/du^mu
        X_j = sum_k x_j x_k d/dx_k + sum_mu x_j u^mu d/du^mu
        Y_nu = sum_k x_k u^nu d/dx_k + sum_mu u^nu u^mu d/du^mu
    """
    check_size("flat generator list", (n + m + 2) * (n + m))
    if ctx is None:
        ctx = JetContext.create(n, m)
    if ctx.n != n or ctx.m != m:
        raise ValueError("context shape mismatch")
    zero = ctx.zero()

    def field(theta, eta):
        return VectorField(ctx, theta, eta)

    def unit(count, pos, value):
        return tuple(value if t == pos else zero for t in range(count))

    out = []
    names = []
    one = ctx.const(1)
    for k in range(1, n + 1):
        out.append(field(unit(n, k - 1, one), (zero,) * m))
        names.append(f"U{k}")
    for mu in range(1, m + 1):
        out.append(field((zero,) * n, unit(m, mu - 1, one)))
        names.append(f"V{mu}")
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            out.append(field(unit(n, k - 1, ctx.x(j)), (zero,) * m))
            names.append(f"W{j}{k}")
    for j in range(1, m + 1):
        for k in range(1, n + 1):
            out.append(field(unit(n, k - 1, ctx.u(j)), (zero,) * m))
            names.append(f"A{j}{k}")
    for k in range(1, n + 1):
        for mu in range(1, m + 1):
            out.append(field((zero,) * n, unit(m, mu - 1, ctx.x(k))))
            names.append(f"B{k}{mu}")
    for k in range(1, m + 1):
        for mu in range(1, m + 1):
            out.append(field((zero,) * n, unit(m, mu - 1, ctx.u(k))))
            names.append(f"C{k}{mu}")
    for j in range(1, n + 1):
        xj = ctx.x(j)
        out.append(field(
            tuple(xj * ctx.x(k) for k in range(1, n + 1)),
            tuple(xj * ctx.u(mu) for mu in range(1, m + 1)),
        ))
        names.append(f"X{j}")
    for nu in range(1, m + 1):
        unu = ctx.u(nu)
        out.append(field(
            tuple(ctx.x(k) * unu for k in range(1, n + 1)),
            tuple(unu * ctx.u(mu) for mu in range(1, m + 1)),
        ))
        names.append(f"Y{nu}")
    return FieldBasis(out, names)


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
    """
    fields = basis.fields
    d = len(fields)
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    brackets = [bracket(fields[a], fields[b]) for a, b in pairs]
    rows, frame = field_rows(fields + brackets)
    constants = {}
    coords = span_coordinates(rows[:d], rows[d:], len(frame))
    for (a, b), br, c in zip(pairs, brackets, coords):
        if c is None:
            return ClosureResult(False, constants, failure=(a, b, br))
        constants[(a, b)] = tuple(c)
    return ClosureResult(True, constants)
