"""From hypersurface defining series to PDE systems, and infinitesimal CR
automorphisms of hyperquadrics.

A Levi nondegenerate hypersurface in normal form is cut out by

    w + wb + sum_j eps_j z_j zb_j + R(Z, Zb) = 0,        R = o(|Z|^2).

Attaching to each parameter point the complex hypersurface obtained by
freezing the conjugated argument produces a family of graphs u(x).  In the
Segre coordinates x = z (independent), u = w (dependent) and parameters
s_j = zb_j, s_{n+1} = wb, the family is cut out by the same defining
polynomial, rho((x, u), s) + R((x, u), s) = 0.  Its total derivatives in x,
with the parameters eliminated, form a completely overdetermined
second-order system for u, derived here by one exact implicit solve.

Conjugated variables are independent polynomial variables; reality of a
defining polynomial is a checked invariant and "Re" is the formal half sum
under the conjugation involution, so no numerical evaluation ever occurs.

A holomorphic field (``HoloField``) is a ``prolong.VectorField`` on (z, w);
``to_xu_field`` rekeys it to the Segre coordinates (x, u) = (z, w).
``tangency_remainder``, 2 Re X(rho) mod rho for one field, serves
``cr_tangency_check``; ``_tangency_rows`` writes the automorphism ansatz's
Gaussian rows column by column, and ``_real_parts`` splits them into real
equations for ``LinearAnsatz.solutions``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import rings
from .ansatz import LinearAnsatz, monomials_up_to
from .jets import JetContext, PDESystem, total_derivative
from .linalg import sparse_rank
from .poly import Poly, coefficient_rows, mono_degree, rekey
from .prolong import VectorField
from .rings import COEF, VarTable, W, Z, conjugate_id, cr_table, jet_table, jet_var, u_var, x_var, zeta_var
from .scalars import GaussScalar, I, ONE, ZERO
from .series import implicit_series_solve


@dataclass(frozen=True)
class Signature:
    eps: tuple[int, ...]

    def __post_init__(self):
        if len(self.eps) < 1:
            raise ValueError("signature needs at least one entry")
        if any(e not in (1, -1) for e in self.eps):
            raise ValueError("signature entries must be +1 or -1")

    @property
    def n(self) -> int:
        return len(self.eps)

    @staticmethod
    def parse(text: str) -> "Signature":
        mapping = {"+": 1, "-": -1}
        try:
            return Signature(tuple(mapping[c] for c in text))
        except KeyError:
            raise ValueError(f"signature must consist of '+' and '-', got {text!r}") from None

    def __str__(self) -> str:
        return "".join("+" if e == 1 else "-" for e in self.eps)


def defining_table(n: int) -> VarTable:
    """Variables for the parameter elimination: the (n, 1) jet table extended
    by the family parameters s_1..s_{n+1}."""
    return jet_table(n, 1).extend([zeta_var(k) for k in range(1, n + 2)])


def _segre_coordinates(n: int) -> dict:
    """Parameter space in the coordinates of the Segre family: x_j = z_j and
    u = w, with the frozen conjugates zb_j and wb as the parameters s_j and
    s_{n+1}."""
    mapping = {(W,): u_var(1), (rings.WBAR,): zeta_var(n + 1)}
    for j in range(1, n + 1):
        mapping[(Z, j)] = x_var(j)
        mapping[(rings.ZBAR, j)] = zeta_var(j)
    return mapping


class DefiningSeries:
    """Signature plus the higher-order part R of a defining series.

    R lives on defining_table(n) in the variables (x, u, s) only, and every
    monomial must have total degree at least 3.
    """

    def __init__(self, signature: Signature, R: Poly | None = None):
        self.signature = signature
        n = signature.n
        self.table = defining_table(n)
        if R is None:
            R = Poly.zero(self.table)
        if R.table is not self.table:
            R = R.convert(self.table)
        for vid in R.variables():
            if vid[0] == rings.JET:
                raise ValueError("R cannot mention jet variables")
        for mono in R.terms:
            if mono_degree(mono) < 3:
                raise ValueError("every monomial of R must have total degree >= 3")
        self.R = R

    @property
    def n(self) -> int:
        return self.signature.n


def hyperquadric(signature: Signature) -> DefiningSeries:
    return DefiningSeries(signature)


def segre_system(defn: DefiningSeries, order: int) -> PDESystem:
    """Eliminate the family parameters and return the second-order system.

    The defining relation rho(Z, zeta) + R in the Segre coordinates, its first
    total derivatives, and their total derivatives are solved jointly for the
    parameters and the second jets; the second-jet components of the solution
    are the right sides F_{ij}, truncated at ``order``.  The result is
    involutive by construction (up to the truncation order), which
    involutivity_check confirms.
    """
    n = defn.n
    table = defn.table
    ectx = JetContext(table)
    rho = hyperquadric_rho(defn.signature).rho
    relation = rekey(rho, table, _segre_coordinates(n).__getitem__) + defn.R
    first = [total_derivative(ectx, relation, k) for k in range(1, n + 1)]
    pairs = [(k, j) for k in range(1, n + 1) for j in range(k, n + 1)]
    equations = first + [relation] + [total_derivative(ectx, first[k - 1], j) for k, j in pairs]
    unknowns = [zeta_var(k) for k in range(1, n + 2)] + [jet_var(1, pair) for pair in pairs]

    solution = implicit_series_solve(equations, unknowns, order)

    ctx = JetContext.create(n, 1)
    return PDESystem(ctx, {(1, k, j): solution[jet_var(1, (k, j))].convert(ctx.table) for k, j in pairs})


# ---------------------------------------------------------------------------
# CR side: tangency and automorphism algebras
# ---------------------------------------------------------------------------


def conjugate_poly(f: Poly) -> Poly:
    """Formal conjugation: swap each variable with its conjugate partner and
    conjugate the coefficients."""
    g = rekey(f, f.table, conjugate_id)
    return Poly(g.table, {m: c.conjugate() for m, c in g.terms.items()}, g.bound)


class RealDefiningPolynomial:
    """A real-valued defining polynomial in (z, zb, w, wb)."""

    def __init__(self, rho: Poly):
        diff = rho - conjugate_poly(rho)
        if not diff.is_zero():
            raise ValueError("defining polynomial is not real")
        self.rho = rho

    @property
    def table(self) -> VarTable:
        return self.rho.table


def hyperquadric_rho(signature: Signature, table: VarTable | None = None) -> RealDefiningPolynomial:
    n = signature.n
    if table is None:
        table = cr_table(n)
    rho = Poly.var(table, (W,)) + Poly.var(table, (rings.WBAR,))
    for j, e in enumerate(signature.eps, start=1):
        rho = rho + (
            Poly.var(table, (Z, j)) * Poly.var(table, (rings.ZBAR, j))
        ).scale(GaussScalar(e))
    return RealDefiningPolynomial(rho)


def HoloField(table: VarTable, coeffs) -> VectorField:
    """sum_j a_j(z, w) d/dz_j + b(z, w) d/dw on parameter space."""
    coeffs = tuple(coeffs)
    return VectorField.on(table, [(Z, j) for j in range(1, len(coeffs))] + [(W,)], coeffs)


def reduce_by_rho(f: Poly, rho: Poly) -> Poly:
    """Normal form of f modulo rho, eliminating w.

    rho must be unit*w + tail with an invertible unit and a tail free of w.
    The normal form is then the substitution w -> -tail/unit: the unique
    representative of f modulo (rho) with no w, which vanishes exactly when
    f lies in the ideal (rho).
    """
    wmono = ((f.table.index((W,)), 1),)
    unit = rho.terms.get(wmono, ZERO)
    if unit.is_zero():
        raise ValueError("reduction inapplicable: defining polynomial has no w term")
    tail = rho - Poly(rho.table, {wmono: unit})
    if (W,) in tail.variables():
        raise ValueError("reduction inapplicable: the tail of the defining polynomial involves w")
    return f.substitute({(W,): tail.scale(-unit.inverse())})


def tangency_remainder(X: VectorField, rho: RealDefiningPolynomial) -> Poly:
    """Twice the real part of X(rho), reduced modulo rho: zero exactly when
    the real part of X is tangent to the hypersurface."""
    xrho = X.apply_to(rho.rho)
    return reduce_by_rho(xrho + conjugate_poly(xrho), rho.rho)


def cr_tangency_check(X: VectorField, rho: RealDefiningPolynomial) -> bool:
    """True iff twice the real part of X(rho) lies in the ideal (rho), i.e.
    the real part of X is tangent to the hypersurface."""
    return tangency_remainder(X, rho).is_zero()


def _tangency_rows(ansatz: LinearAnsatz, rho: RealDefiningPolynomial) -> dict:
    """The Gaussian rows {monomial: {column: coefficient}} of 2 Re X(rho) mod
    rho over the CR ansatz, whose unknowns are (COEF, (part, comp), alpha).

    The column (aR, comp, alpha) is the field X = w^alpha d/d(zw)_comp, so
    X(rho) = w^alpha g with g = d rho/d(zw)_comp.  The reduction is the
    substitution S: w -> -tail/unit, a ring map, and conj(w^alpha) has no
    w, so the column's remainder is A + B with A = S(w^alpha) S(g) and
    B = conj(w^alpha) S(conj g); the aI column, i X, gives i (A - B).
    S(g) and S(conj g) are formed once per component, S(w^alpha) and
    conj(w^alpha) once per alpha, and A and B once per (comp, alpha).  Rows
    come in the order their monomials are first met, column by column.
    """
    f = rho.rho
    grads = [f.differentiate(v) for v in ansatz.wvars]
    s_grads = [reduce_by_rho(g, f) for g in grads]
    s_conj_grads = [reduce_by_rho(conjugate_poly(g), f) for g in grads]
    powers = {}  # alpha -> (S(w^alpha), conj(w^alpha))
    products = {}  # (comp, alpha) -> (A, B), shared by its two columns
    rows = {}
    for c, (_, (part, comp), alpha) in enumerate(ansatz.unknowns):
        if alpha not in powers:
            w_alpha = Poly(ansatz.table, {ansatz.monomial(alpha): ONE})
            powers[alpha] = (reduce_by_rho(w_alpha, f), conjugate_poly(w_alpha))
        if (comp, alpha) not in products:
            s_w_alpha, conj_w_alpha = powers[alpha]
            products[comp, alpha] = (s_w_alpha * s_grads[comp], conj_w_alpha * s_conj_grads[comp])
        A, B = products[comp, alpha]
        remainder = A + B if part == "aR" else (A - B).scale(I)
        for mono, v in remainder.terms.items():
            rows.setdefault(mono, {})[c] = v
    return rows


def _real_parts(row: dict) -> tuple[dict, dict]:
    """The real row and the imaginary row of a sparse {column: GaussScalar}
    row, each holding its nonzero entries only."""
    re_row, im_row = {}, {}
    for c, v in row.items():
        re, im = v.parts()
        if not re.is_zero():
            re_row[c] = re
        if not im.is_zero():
            im_row[c] = im
    return re_row, im_row


@dataclass
class CRAutomorphismAlgebra:
    signature: Signature
    basis: list[VectorField]
    table: VarTable

    @property
    def real_dimension(self) -> int:
        return len(self.basis)


def cr_automorphism_algebra(signature: Signature) -> CRAutomorphismAlgebra:
    """Real basis of the infinitesimal automorphisms of the hyperquadric.

    Enumerates holomorphic fields with polynomial coefficients of degree at
    most two (second-order Taylor data determines an automorphism), imposes
    the tangency condition exactly, splits it into real and imaginary
    rational equations, and returns a nullspace basis.
    """
    n = signature.n
    rings.check_size("CR ansatz", 2 * (n + 1) * comb(n + 3, 2))
    base = cr_table(n)
    zw = [(Z, j) for j in range(1, n + 1)] + [(W,)]
    # Columns: component, then exponent, then real and imaginary part.
    unknowns = [
        (COEF, (part, comp), alpha)
        for comp in range(n + 1)
        for alpha in monomials_up_to(n + 1, 2)
        for part in ("aR", "aI")
    ]
    ansatz = LinearAnsatz(base, zw, unknowns)
    rows = _tangency_rows(ansatz, hyperquadric_rho(signature, base))
    rows = [part for row in rows.values() for part in _real_parts(row) if part]
    basis = []
    for vec in ansatz.solutions(rows):
        polys = ansatz.realize(vec)
        basis.append(HoloField(base, [polys[("aR", c)] + polys[("aI", c)].scale(I) for c in range(n + 1)]))
    return CRAutomorphismAlgebra(signature, basis, base)


def totally_real_check(fields) -> bool:
    """True iff the real span A of the fields satisfies A meet iA = {0}:
    A + iA is the complex span of A, so that holds exactly when the complex
    rank of the coefficient rows equals the rank of their real forms."""
    rows, ncols = coefficient_rows([X.coeffs for X in fields])
    real_rows = []
    for row in rows:
        # Real parts keep column c; imaginary parts move to column ncols + c.
        re_row, im_row = _real_parts(row)
        real_rows.append({**re_row, **{ncols + c: v for c, v in im_row.items()}})
    return sparse_rank(rows) == sparse_rank(real_rows)


def to_xu_field(X: VectorField, ctx: JetContext) -> VectorField:
    """Rewrite a field on (z, w) parameter space in the (x, u) variables of
    the associated second-order system (x_j = z_j, u = w)."""
    return X.rekey(ctx.table, _segre_coordinates(ctx.n).__getitem__, ctx)
