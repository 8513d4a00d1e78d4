"""Point vector fields on (x, u)-space, their prolongations to jet space, and
the tangency criterion singling out infinitesimal symmetries.

The prolongation coefficients follow the total-derivative recursion

    eta^mu_i     = D_i eta^mu - sum_j (D_i theta_j) u^mu_j
    eta^mu_{I,i} = D_i eta^mu_I - sum_j (D_i theta_j) u^mu_{I,j}

which is symmetric in the multi-index, so coefficients are stored against
sorted indices only.  The symmetry criterion needs only the first
prolongation: it takes the last step of the recursion on the equation
manifold, with the restricted total derivative and F in place of the
second jets.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from . import rings
from .jets import JetContext, PDESystem, jet_order_of_poly, restricted_total_derivative, total_derivative
from .poly import Poly
from .rings import JET, jet_var
from .scalars import GaussScalar


class VectorField:
    """theta_j d/dx_j + eta^mu d/du^mu with jet-free polynomial coefficients."""

    def __init__(self, ctx: JetContext, theta, eta):
        self.ctx = ctx
        theta = tuple(theta)
        eta = tuple(eta)
        if len(theta) != ctx.n or len(eta) != ctx.m:
            raise ValueError("coefficient counts must match (n, m)")
        ids = ctx.table.ids
        for f in theta + eta:
            if f.table is not ctx.table:
                raise ValueError("coefficients must live on the context's table")
            if any(ids[p][0] == JET for m in f.terms for p, _ in m):
                raise ValueError("point field coefficients cannot mention jet variables")
        self.theta = theta
        self.eta = eta

    @staticmethod
    def zero(ctx: JetContext) -> "VectorField":
        z = Poly.zero(ctx.table)
        return VectorField(ctx, (z,) * ctx.n, (z,) * ctx.m)

    def vector(self) -> dict:
        """The field as a map from (x, u) variable ids to coefficients."""
        out = {rings.x_var(j): f for j, f in enumerate(self.theta, start=1)}
        out.update((rings.u_var(mu), f) for mu, f in enumerate(self.eta, start=1))
        return out

    def apply_to(self, f: Poly) -> Poly:
        """Derivation action on a jet-free function of (x, u)."""
        return f.derivation(self.vector())

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            self.ctx,
            tuple(a + b for a, b in zip(self.theta, other.theta)),
            tuple(a + b for a, b in zip(self.eta, other.eta)),
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + other.scale(GaussScalar(-1))

    def scale(self, s: GaussScalar) -> "VectorField":
        return VectorField(
            self.ctx,
            tuple(f.scale(s) for f in self.theta),
            tuple(f.scale(s) for f in self.eta),
        )

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.theta + self.eta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.theta == other.theta and self.eta == other.eta

    def __repr__(self) -> str:
        thetas = ", ".join(str(f) for f in self.theta)
        etas = ", ".join(str(f) for f in self.eta)
        return f"<VectorField theta=({thetas}) eta=({etas})>"


class ProlongedField:
    """A vector field together with its jet coefficients up to some order."""

    def __init__(self, base: VectorField, order: int, eta_jet: dict, d_theta: dict):
        self.base = base
        self.order = order
        self.eta_jet = eta_jet  # (mu, sorted index tuple) -> Poly
        self.d_theta = d_theta  # (i, j) -> D_i theta_j

    def coefficient(self, mu: int, indices: tuple[int, ...]) -> Poly:
        return self.eta_jet[(mu, tuple(sorted(indices)))]


def prolong(X: VectorField, order: int) -> ProlongedField:
    """Lift X to the jet space of the given order by the recursion."""
    ctx = X.ctx
    if order < 1 or order > ctx.max_jet_order:
        raise ValueError(f"prolongation order must be within 1..{ctx.max_jet_order}")
    table = ctx.table
    eta_jet: dict[tuple[int, tuple[int, ...]], Poly] = {}
    d_theta = {
        (i, j): total_derivative(ctx, X.theta[j - 1], i)
        for i in range(1, ctx.n + 1)
        for j in range(1, ctx.n + 1)
    }
    for mu in range(1, ctx.m + 1):
        eta_jet[(mu, ())] = X.eta[mu - 1]
    for s in range(1, order + 1):
        for mu in range(1, ctx.m + 1):
            for idx in combinations_with_replacement(range(1, ctx.n + 1), s):
                head, i = idx[:-1], idx[-1]
                prev = eta_jet[(mu, head)]
                value = total_derivative(ctx, prev, i)
                for j in range(1, ctx.n + 1):
                    dt = d_theta[(i, j)]
                    if dt.is_zero():
                        continue
                    value = value - Poly.var(table, jet_var(mu, head + (j,))) * dt
                eta_jet[(mu, idx)] = value
    for mu in range(1, ctx.m + 1):
        del eta_jet[(mu, ())]
    return ProlongedField(X, order, eta_jet, d_theta)


def apply_prolonged(Xp: ProlongedField, f: Poly) -> Poly:
    """Derivation action of the prolonged field on a jet function."""
    if jet_order_of_poly(f) > Xp.order:
        raise ValueError("jet order of the function exceeds the prolongation order")
    vector = Xp.base.vector()
    vector.update((jet_var(mu, idx), coeff) for (mu, idx), coeff in Xp.eta_jet.items())
    return f.derivation(vector)


def lie_criterion_check(X: VectorField, sys: PDESystem) -> dict:
    """Residuals of the symmetry criterion, indexed by (mu, i, j) with i <= j.

    X is an infinitesimal symmetry iff every residual is identically zero:
    eta^mu_ij on the equation manifold (second jets replaced by F) must
    agree with the first prolongation applied to F^mu_ij.  The residual is
    D^_j eta^mu_i - sum_l (D_j theta_l) F^mu_il - X^(1) F^mu_ij, with D^_j
    the ``restricted_total_derivative``, so no second jet is ever built.
    """
    if X.ctx is not sys.ctx and X.ctx.table is not sys.ctx.table:
        raise ValueError("field and system must share a jet context")
    ctx = sys.ctx
    Xp = prolong(X, 1)
    residuals = {}
    for mu in range(1, ctx.m + 1):
        for i in range(1, ctx.n + 1):
            for j in range(i, ctx.n + 1):
                value = restricted_total_derivative(sys, Xp.coefficient(mu, (i,)), j)
                for l in range(1, ctx.n + 1):
                    dt = Xp.d_theta[(j, l)]
                    if not dt.is_zero():
                        value = value - dt * sys.F(mu, i, l)
                residuals[(mu, i, j)] = value - apply_prolonged(Xp, sys.F(mu, i, j))
    return residuals
