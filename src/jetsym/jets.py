"""Jet coordinates, completely overdetermined second-order PDE systems, total
derivatives, and the involutivity (cross-derivative compatibility) check.

A system prescribes every second derivative:  u^k_{ij} = F^k_{ij}(x, u, u^(1))
with F symmetric in (i, j).  Only the representative with i <= j is stored,
so the symmetry is structural.  The jet table stops at second jets, so D_i
applies to functions of at most first order; the involutivity check works
on the equation manifold, where the restricted total derivative keeps every
function first order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from . import rings
from .poly import Poly, translate
from .rings import VarTable, jet_table, jet_var, u_var, x_var
from .scalars import GaussScalar, ONE, ZERO


class JetOrderError(ValueError):
    """An operation would need jet variables beyond the table's second jets."""


class JetContext:
    """A jet variable table plus convenience accessors.  n and m are read
    once, from the table's x and u variables; the table may carry auxiliary
    variables after the jets."""

    def __init__(self, table: VarTable):
        kinds = [v[0] for v in table.ids]
        self.n, self.m = kinds.count(rings.X), kinds.count(rings.U)
        if self.n < 1 or self.m < 1:
            raise ValueError("jet context needs n >= 1 and m >= 1")
        seconds = combinations_with_replacement(range(1, self.n + 1), 2)
        if any(jet_var(mu, ij) not in table for ij in seconds for mu in range(1, self.m + 1)):
            raise ValueError("jet context needs a table with the second jets")
        self.table = table

    @staticmethod
    def create(n: int, m: int) -> "JetContext":
        return JetContext(jet_table(n, m))

    def x(self, i: int) -> Poly:
        return Poly.var(self.table, x_var(i))

    def u(self, mu: int) -> Poly:
        return Poly.var(self.table, u_var(mu))

    def jet(self, mu: int, *indices: int) -> Poly:
        return Poly.var(self.table, jet_var(mu, tuple(indices)))

    def zero(self) -> Poly:
        return Poly.zero(self.table)

    def const(self, value) -> Poly:
        if not isinstance(value, GaussScalar):
            value = GaussScalar(value)
        return Poly.const(self.table, value)


def jet_order_of_poly(f: Poly) -> int:
    return _jet_order(f.variables())


def _jet_order(vids) -> int:
    """0 for x, u and auxiliary variables, |I| for a jet u^mu_I."""
    return max((len(v[2]) for v in vids if v[0] == rings.JET), default=0)


class PDESystem:
    """The table F^k_{ij}, i <= j, of jet functions in (x, u, u^(1)) only."""

    def __init__(self, ctx: JetContext, entries: dict | None = None):
        self.ctx = ctx
        self.entries: dict[tuple[int, int, int], Poly] = {}
        n, m = ctx.n, ctx.m
        entries = entries or {}
        for (k, i, j), f in entries.items():
            if not (1 <= k <= m and 1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"entry index ({k},{i},{j}) out of range")
            key = (k, i, j) if i <= j else (k, j, i)
            if key in self.entries and not (self.entries[key] - f).is_zero():
                raise ValueError(f"conflicting entries for F^{k}_{{{i}{j}}}")
            if f.table is not ctx.table:
                f = f.convert(ctx.table)
            if jet_order_of_poly(f) > 1:
                raise ValueError(
                    f"F^{k}_{{{i}{j}}} mentions jet variables of order above one"
                )
            self.entries[key] = f
        zero = Poly.zero(ctx.table)
        for k in range(1, m + 1):
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    self.entries.setdefault((k, i, j), zero)

    def F(self, k: int, i: int, j: int) -> Poly:
        if i > j:
            i, j = j, i
        return self.entries[(k, i, j)]

    def translated(self, point: dict) -> "PDESystem":
        """The system recentered so that the given (x, u) point becomes the
        origin; a truncated system is known only near the origin."""
        if any(vid[0] not in (rings.X, rings.U) for vid in point):
            raise ValueError("base point assigns only x and u variables")
        polys = list(self.entries.values())
        if any(f.bound is not None for f in polys) and any(v not in (0, ZERO) for v in point.values()):
            raise ValueError("a truncated system cannot be recentred at a nonzero base point")
        return PDESystem(self.ctx, dict(zip(self.entries, translate(polys, point))))


def _total_vector(table: VarTable, vids, i: int, lift) -> dict:
    """D_i as a derivation vector: x_i -> 1, and on the variables vids of the
    function u^mu -> u^mu_i and a jet u^mu_I -> lift(mu, I); auxiliary
    variables are constant.  x_i is always present, so D_i lowers the bound
    even of a constant."""
    vector = {x_var(i): Poly.const(table, ONE)}
    for vid in vids:
        kind = vid[0]
        if kind == rings.U:
            vector[vid] = Poly.var(table, jet_var(vid[1], (i,)))
        elif kind == rings.JET:
            vector[vid] = lift(vid[1], vid[2])
    return vector


def total_derivative(ctx: JetContext, f: Poly, i: int) -> Poly:
    """D_i f, treating u and all jet variables as functions of x.

    Raises JetOrderError if f has second jets: D_i of them would need third
    jets.  Auxiliary (non-jet) variables are treated as constants.
    """
    if not (1 <= i <= ctx.n):
        raise ValueError(f"direction {i} out of range")
    vids = f.variables()
    if _jet_order(vids) >= 2:
        raise JetOrderError(f"D_{i} of f needs third jets; the jet table stops at second jets")
    return f.derivation(_total_vector(f.table, vids, i, lambda mu, idx: Poly.var(f.table, jet_var(mu, idx + (i,)))))


def restricted_total_derivative(sys: PDESystem, f: Poly, i: int) -> Poly:
    """The total derivative along solutions: second jets replaced by F.

    f must involve only (x, u, first-jet) variables; so does the result.
    """
    vids = f.variables()
    if _jet_order(vids) > 1:
        raise ValueError("restricted total derivative needs a first-order jet function")
    return f.derivation(_total_vector(f.table, vids, i, lambda mu, idx: sys.F(mu, i, idx[0]).convert(f.table)))


@dataclass
class InvolutivityVerdict:
    involutive: bool
    failures: list  # (k, i, j, l, difference Poly)

    def __bool__(self) -> bool:
        return self.involutive


def check_involutivity_size(n: int, m: int) -> None:
    """Refuse an involutivity check by its m·n·n(n-1)/2 comparisons."""
    rings.check_size("involutivity comparison list", m * n * n * (n - 1) // 2)


def involutivity_check(sys: PDESystem) -> InvolutivityVerdict:
    """Cross-derivative compatibility of the prescribed second derivatives.

    The system is involutive iff D_l F^k_{ij} and D_i F^k_{lj} agree along
    solutions for all k, i, j, l.  For truncated entries the comparison is
    modulo the truncation bound.  Failures carry the nonzero difference.
    A system over the size cap is refused before any derivative is formed.
    """
    n, m = sys.ctx.n, sys.ctx.m
    check_involutivity_size(n, m)
    failures = []
    derivatives: dict[tuple, Poly] = {}

    def derivative(k: int, i: int, j: int, l: int) -> Poly:
        """D_l F^k_{ij}, formed once: F is symmetric in (i, j)."""
        key = (k, min(i, j), max(i, j), l)
        out = derivatives.get(key)
        if out is None:
            out = derivatives[key] = restricted_total_derivative(sys, sys.F(k, i, j), l)
        return out

    for k in range(1, m + 1):
        for i in range(1, n + 1):
            for l in range(i + 1, n + 1):
                for j in range(1, n + 1):
                    diff = derivative(k, i, j, l) - derivative(k, l, j, i)
                    if not diff.is_zero():
                        failures.append((k, i, j, l, diff))
    return InvolutivityVerdict(not failures, failures)
