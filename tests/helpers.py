"""Shared random generators (seeded, deterministic) and reference helpers for
the property tests."""

from __future__ import annotations

from fractions import Fraction
from random import Random

from jetsym.poly import Poly
from jetsym.prolong import VectorField
from jetsym.rings import jet_var
from jetsym.scalars import GaussScalar


def random_scalar(rng: Random, span: int = 4, complex_prob: float = 0.3) -> GaussScalar:
    re = Fraction(rng.randint(-span, span), rng.randint(1, 3))
    if rng.random() < complex_prob:
        return GaussScalar(re, Fraction(rng.randint(-span, span), rng.randint(1, 3)))
    return GaussScalar(re)


def random_poly(rng: Random, table, vids, max_terms: int = 4, max_degree: int = 3) -> Poly:
    positions = [table.index(v) for v in vids]
    acc = Poly.zero(table)
    for _ in range(rng.randint(0, max_terms)):
        counts: dict[int, int] = {}
        for _ in range(rng.randint(0, max_degree)):
            p = rng.choice(positions)
            counts[p] = counts.get(p, 0) + 1
        mono = tuple(sorted(counts.items()))
        coeff = random_scalar(rng)
        if coeff.is_zero():
            continue
        acc = acc + Poly(table, {mono: coeff})
    return acc


def random_point_field(rng: Random, ctx, max_terms: int = 3, max_degree: int = 2) -> VectorField:
    from jetsym.rings import u_var, x_var

    wvars = [x_var(i) for i in range(1, ctx.n + 1)] + [u_var(mu) for mu in range(1, ctx.m + 1)]
    theta = tuple(
        random_poly(rng, ctx.table, wvars, max_terms, max_degree) for _ in range(ctx.n)
    )
    eta = tuple(
        random_poly(rng, ctx.table, wvars, max_terms, max_degree) for _ in range(ctx.m)
    )
    return VectorField(ctx, theta, eta)


def second_jet_bindings(sys_) -> dict:
    """The substitution u^k_{ij} -> F^k_{ij} of a system, for references that
    restrict to the equation manifold by substituting."""
    return {jet_var(k, (i, j)): f for (k, i, j), f in sys_.entries.items()}
