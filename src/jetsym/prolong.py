"""Point vector fields on (x, u)-space, their prolongations to jet space, and
the tangency criterion singling out infinitesimal symmetries.

The prolongation coefficients follow the total-derivative recursion

    eta^mu_i     = D_i eta^mu - sum_j (D_i theta_j) u^mu_j
    eta^mu_{I,i} = D_i eta^mu_I - sum_j (D_i theta_j) u^mu_{I,j}

which is symmetric in the multi-index, so coefficients are stored against
sorted indices only.  The jet table stops at second jets, so a field is
prolonged to order 1 or 2, the most a second-order system needs.  The
symmetry criterion needs only the first prolongation: it takes the last
step of the recursion on the equation manifold, with the restricted total
derivative and F in place of the second jets.  ``lie_operator`` gives the
same criterion as a linear second-order operator in the field, its
coefficients written in closed form from F.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from . import rings
from .jets import JetContext, PDESystem, jet_order_of_poly, restricted_total_derivative, total_derivative
from .poly import Poly, _add_into, _min_bound, derivation_bound, mono_degree, mono_mul, partial_terms
from .rings import JET, jet_var
from .scalars import GaussScalar, ONE


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
    """Lift X to the first or second jets by the recursion."""
    ctx = X.ctx
    if order not in (1, 2):
        raise ValueError(f"prolongation order must be 1 or 2, got {order}")
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


def lie_operator(sys: PDESystem, column) -> tuple[dict, dict]:
    """The criterion as an operator, R(X) = sum_{f, |beta| <= 2} A_{f,beta}
    d^beta X_f, written straight from F (Olver 1986, section 2.4), with f
    the component theta_1 .. theta_n, eta^1 .. eta^m of X by index and beta
    a dense exponent tuple over w = (x, u).  Returns {slot: {monomial:
    {column(f, beta): coefficient}}} and each slot's truncation bound, the
    bound ``lie_criterion_check`` gives that residual; every A is
    truncated there.

    For the slot (mu, i, j), with d_i[a] the coefficient of d/dw_a in D_i
    (1 for x_i, p^nu_i for u^nu, else 0), each term c that reaches eta^nu
    through the characteristic eta^nu - sum_l p^nu_l theta_l adds c to
    A_{eta^nu,beta} and -p^nu_l c to A_{theta_l,beta}:

    * c = d_i[a] d_j[b] at beta = e_a + e_b, for nu = mu;
    * c = F^nu_ij at beta = e_{u^nu}, for nu = mu;
    * c = -G d_k[a] at beta = e_a, for G = dF^mu_ij/dp^nu_k.

    Besides, A_{theta_l,e_a} -= F^mu_lj d_i[a] + F^mu_il d_j[a],
    A_{theta_l,0} = -dF^mu_ij/dx_l and A_{eta^nu,0} = -dF^mu_ij/du^nu.
    """
    table, n, m = sys.ctx.table, sys.ctx.n, sys.ctx.m
    p = {(nu, k): ((table.index(jet_var(nu, (k,))), 1),) for nu in range(1, m + 1) for k in range(1, n + 1)}
    w = [table.index(rings.x_var(i)) for i in range(1, n + 1)]
    w += [table.index(rings.u_var(nu)) for nu in range(1, m + 1)]
    # The prolonged field moves every x, u and first jet: X^(1) F is a
    # derivation in them.
    moved = set(w) | {mono[0][0] for mono in p.values()}
    # d_i as [(a, d_i[a])] over its nonzero entries, each a monomial.
    d = {i: [(i - 1, ())] + [(n + nu - 1, p[(nu, i)]) for nu in range(1, m + 1)] for i in range(1, n + 1)}
    e = [tuple(int(t == a) for t in range(n + m)) for a in range(n + m)]
    operator, bounds = {}, {}
    for mu, i, j in sorted(sys.entries):
        f = sys.F(mu, i, j)
        # D^_j eta^mu_i reads F^nu_ij and F^mu_jl, the theta terms F^mu_il.
        bound = bounds[(mu, i, j)] = _min_bound(
            *(sys.F(nu, i, j).bound for nu in range(1, m + 1)),
            *(sys.F(mu, k, l).bound for k in (i, j) for l in range(1, n + 1)),
            derivation_bound(f.bound, moved),
        )
        terms_of = {}  # (monomial, column) -> coefficient

        def put(comp, beta, terms):
            if terms:
                col = column(comp, beta)
                # A fixed factor times distinct monomials: no key repeats.
                _add_into(terms_of, {(t, col): c for t, c in terms})

        def characteristic(nu, beta, terms):
            if not terms:
                return
            put(n + nu - 1, beta, terms)
            negated = [(t, -c) for t, c in terms]
            for l in range(1, n + 1):
                put(l - 1, beta, [(mono_mul(p[(nu, l)], t), c) for t, c in negated])

        for a, da in d[i]:
            for b, db in d[j]:
                characteristic(mu, tuple(map(sum, zip(e[a], e[b]))), [(mono_mul(da, db), ONE)])
        for nu in range(1, m + 1):
            characteristic(mu, e[n + nu - 1], list(sys.F(nu, i, j).terms.items()))
        for l in range(1, n + 1):
            for k, g in ((i, sys.F(mu, l, j)), (j, sys.F(mu, i, l))):
                for a, da in d[k]:
                    put(l - 1, e[a], [(mono_mul(da, t), -c) for t, c in g.terms.items()])
        partials = partial_terms(f.terms, moved)
        for (nu, k), pk in p.items():
            for a, da in d[k]:
                characteristic(nu, e[a], [(mono_mul(da, t), -c) for t, c in partials.get(pk[0][0], {}).items()])
        for a, v in enumerate(w):
            put(a, (0,) * (n + m), [(t, -c) for t, c in partials.get(v, {}).items()])
        rows = operator[(mu, i, j)] = {}
        for (t, col), c in terms_of.items():
            if bound is None or mono_degree(t) <= bound:
                rows.setdefault(t, {})[col] = c
    return operator, bounds
