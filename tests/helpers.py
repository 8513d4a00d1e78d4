"""Shared random generators (seeded, deterministic) and reference helpers for
the property tests."""

from __future__ import annotations

import os
import weakref
from fractions import Fraction
from itertools import zip_longest
from math import comb, inf, perm, prod
from random import Random

from hypothesis import settings

from jetsym import rings
from jetsym.determining import (
    ETA,
    THETA,
    DeterminingSystem,
    InitialData,
    LinearAnsatz,
    RowProvenance,
    TruncationOrderError,
    UnknownCoefficientField,
    _shift_field,
    alpha_factorial,
    generate_determining,
    monomials_up_to,
)
from jetsym.jets import InvolutivityVerdict, JetContext, PDESystem, restricted_total_derivative, total_derivative
from jetsym.lie_alg import FieldBasis
from jetsym.linalg import LinearSolveResult, _Reducer, sparse_rank
from jetsym.poly import Poly, _add_into, _min_bound, coefficient_rows, mono_degree, mono_mul, mono_sort_key
from jetsym.prolong import VectorField, lie_criterion_check
from jetsym.rings import COEF, W, Z, check_size, cr_table, jet_var, u_var, x_var, zeta_var
from jetsym.scalars import I, ONE, ZERO, GaussScalar
from jetsym.segre import (
    CRAutomorphismAlgebra,
    HoloField,
    Signature,
    _real_parts,
    defining_table,
    hyperquadric_rho,
    reduce_by_rho,
)
from jetsym.series import InconsistentBaseError, _invert_matrix, implicit_series_solve


def budget(n: int) -> int:
    """A property test's example count: its own n, raised to the ci profile's
    count when HYPOTHESIS_PROFILE=ci selects that profile (see conftest.py)."""
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
        return max(n, settings.get_profile("ci").max_examples)
    return n


def random_scalar(rng: Random, span: int = 4, complex_prob: float = 0.3) -> GaussScalar:
    re = Fraction(rng.randint(-span, span), rng.randint(1, 3))
    if rng.random() < complex_prob:
        return GaussScalar(re, Fraction(rng.randint(-span, span), rng.randint(1, 3)))
    return GaussScalar(re)


class FractionPairScalar:
    """The Fraction-pair Gaussian rational that GaussScalar replaced: re + im*i
    with two ``Fraction`` parts.  Kept as the reference for the differential
    scalar tests."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __add__(self, other):
        return FractionPairScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionPairScalar(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return FractionPairScalar(-self.re, -self.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return FractionPairScalar(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        c, d = other.re, other.im
        if not c and not d:
            raise ZeroDivisionError("division by zero")
        n = c * c + d * d
        a, b = self.re, self.im
        return FractionPairScalar((a * c + b * d) / n, (b * c - a * d) / n)

    def inverse(self):
        return FractionPairScalar(1) / self

    def conjugate(self):
        return FractionPairScalar(self.re, -self.im)

    def __pow__(self, n: int):
        if n < 0:
            return (self ** (-n)).inverse()
        result = FractionPairScalar(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __str__(self) -> str:
        def frac(q: Fraction) -> str:
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

        re, im = self.re, self.im
        if not im:
            return frac(re)
        im_part = "i" if im == 1 else "-i" if im == -1 else f"{frac(im)}*i"
        if not re:
            return im_part
        return f"{frac(re)}{'+' if im > 0 else ''}{im_part}"


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


def random_point(rng: Random, vids) -> dict:
    """Int, scalar and zero coordinates for a random subset of vids."""
    return {vid: rng.choice([0, ZERO, rng.randint(-3, 3), random_scalar(rng)]) for vid in vids if rng.random() < 0.8}


def random_point_field(rng: Random, ctx, max_terms: int = 3, max_degree: int = 2) -> VectorField:
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


def first_difference(a, b):
    """The index of the first element where two sequences differ (a missing
    element counts), or None.  Asserting on it keeps a failing example cheap
    to report while hypothesis shrinks it."""
    return next((k for k, (x, y) in enumerate(zip_longest(a, b, fillvalue=object())) if x != y), None)


def system_of_rows(field, rows: dict) -> DeterminingSystem:
    """A determining system holding the rows {slot: {monomial: row}} as
    they are, split as ``_blocks`` splits Lie's operator: one block per slot
    and jet part, keyed by the (x, u) part of each monomial."""
    is_xu = [vid[0] in (rings.X, rings.U) for vid in field.table.ids]
    layout, blocks = {}, {}
    for slot, by_mono in rows.items():
        keys = layout[slot] = {}
        for mono, row in by_mono.items():
            k = keys.setdefault(tuple(f for f in mono if not is_xu[f[0]]), len(blocks))
            blocks.setdefault(k, {})[tuple(f for f in mono if is_xu[f[0]])] = row
    return DeterminingSystem(field, layout, blocks)


def written_rows(det) -> dict:
    """Every row of ``det`` written out, {slot: {monomial: row}}, read from
    ``det.ordered()``; a slot with no rows maps to {}."""
    out = {slot: {} for slot in det.layout}
    for prov, row in det.ordered():
        out[(prov.mu, prov.i, prov.j)][prov.mono] = row
    return out


# The symbolic ansatz that ``LinearAnsatz`` built before every caller wrote
# its rows from a linear operator: the unknowns appended to the table as
# variables, so an expression built from the ansatz stays ordinary
# polynomial arithmetic, linear in the unknowns.  The references below run
# the criterion and the tangency condition on it.
_EXT_TABLES = weakref.WeakKeyDictionary()


def ext_table(ansatz):
    """The ansatz's table extended by its unknowns, in column order; the
    base positions are kept, so one monomial in wvars serves both tables.
    Built once per ansatz, since tables are compared by identity."""
    table = _EXT_TABLES.get(ansatz)
    if table is None:
        table = _EXT_TABLES[ansatz] = ansatz.table.extend(ansatz.unknowns)
    return table


def ext_system(sys_, field) -> PDESystem:
    """The system's F on the extended table of ``field``, each bound raised
    by one.  Every term of the criterion on the ansatz holds exactly one
    unknown, of degree 1, so a residual over this system is known to one
    degree above its bound in the ordinary variables: the references read
    each residual bound back lowered by one."""
    table = ext_table(field)
    entries = {}
    for key, f in sys_.entries.items():
        f = f.convert(table)
        entries[key] = Poly(table, f.terms, None if f.bound is None else f.bound + 1)
    return PDESystem(JetContext(table), entries)


def ansatz_poly(ansatz, name) -> Poly:
    """The ansatz polynomial of ``name`` over the extended table."""
    offset = len(ansatz.table)
    terms = {mono + ((offset + c, 1),): ONE for c, (nm, mono) in enumerate(ansatz._terms) if nm == name}
    return Poly(ext_table(ansatz), terms)


def group(ansatz, polys: dict) -> dict:
    """One linear equation per (slot, ordinary monomial) of polys, a map
    from slot keys to Polys over the extended table that are linear in
    the unknowns: {slot: {ordinary monomial: {column: coefficient}}}, in
    the order the terms come."""
    offset = len(ansatz.table)
    groups: dict = {}
    for slot, f in polys.items():
        by_mono = groups[slot] = {}
        for mono, coeff in f.terms.items():
            ordinary, c = split_unknown(mono, offset)
            # Each (monomial, column) pair is a distinct term of the
            # slot's polynomial, so no entry is written twice.
            row = by_mono.get(ordinary)
            if row is None:
                by_mono[ordinary] = {c: coeff}
            else:
                row[c] = coeff
    return groups


def split_unknown(mono, offset: int):
    """Split a term's monomial into (ordinary monomial, unknown's column).

    The unknowns sit at table positions offset, offset + 1, ... in column
    order, after every ordinary variable, so a term's unknown is its last
    factor.  The term must be linear in the unknowns: exactly one unknown,
    to the first power, else ArithmeticError.
    """
    if not mono or mono[-1][0] < offset:
        raise ArithmeticError("term has no unknown")
    p, e = mono[-1]
    if e != 1 or (len(mono) > 1 and mono[-2][0] >= offset):
        raise ArithmeticError("term is not linear in the unknowns")
    return mono[:-1], p - offset


def cr_ansatz(n):
    """The ansatz of ``cr_automorphism_algebra``: columns ordered by
    component, then exponent, then real and imaginary part."""
    table = cr_table(n)
    zw = [(Z, j) for j in range(1, n + 1)] + [(W,)]
    unknowns = [
        (COEF, (part, comp), alpha)
        for comp in range(n + 1)
        for alpha in monomials_up_to(n + 1, 2)
        for part in ("aR", "aI")
    ]
    return LinearAnsatz(table, zw, unknowns)


def sort_all_collect(ansatz, polys: dict) -> dict:
    """Sorted rows by one sort of everything, the reference for
    ``DeterminingSystem.ordered``: every row of every slot in one dict, then
    one sort of all keys by (slot, graded-lex key of the monomial)."""
    offset = len(ansatz.table)
    rows = {}
    for slot, f in polys.items():
        for mono, coeff in f.terms.items():
            ordinary, c = split_unknown(mono, offset)
            rows.setdefault((slot, ordinary), {})[c] = coeff
    return {key: rows[key] for key in sorted(rows, key=lambda k: (k[0], mono_sort_key(k[1])))}


def ansatz_field(field) -> VectorField:
    """The ansatz of an ``UnknownCoefficientField`` as a symbolic field over
    its extended table, for the references that run the criterion on it."""
    theta = tuple(ansatz_poly(field, (THETA, j)) for j in range(1, field.ctx.n + 1))
    eta = tuple(ansatz_poly(field, (ETA, mu)) for mu in range(1, field.ctx.m + 1))
    return VectorField(JetContext(ext_table(field)), theta, eta)


# The general spread that ``determining._spread`` specializes to one field
# and blocks over (x, u), with its power factor: the reference for both.
def _power_factor(alpha, beta) -> int:
    """The k of d^beta w^alpha = k w^(alpha - beta)."""
    return prod(perm(a, b) for a, b in zip(alpha, beta) if b)


def reference_spread(source: UnknownCoefficientField, target: UnknownCoefficientField, groups, bounds, cut, factor) -> dict:
    """Rows {slot: {monomial: {column: coefficient}}} over the unknowns of
    ``target`` from rows over those of ``source``: the term c m of unknown
    (f, beta) adds factor(alpha, beta) c w^delta m to unknown (f, alpha)
    for each alpha = beta + delta of the target with |delta| <= cut.  A
    term is formed only if its (x, u)-degree is at most ``cut`` and its
    degree at most the slot's bound."""
    is_xu = [vid[0] in (rings.X, rings.U) for vid in target.table.ids]
    last_w = max(target.wpos)
    q = len(target.wpos)
    deltas = [(delta, target.monomial(delta)) for delta in monomials_up_to(q, min(cut, target.order))]
    # source column -> [(w^delta, |delta|, target column, factor or None
    # for 1)], graded by |delta|
    shifts: dict[int, list] = {}
    out = {}
    for slot, rows in groups.items():
        bound = bounds[slot]
        spread = out[slot] = {}
        for m, row in rows.items():
            room = cut - sum(e for p, e in m if is_xu[p])
            limit = inf if bound is None else bound - mono_degree(m)
            # x and u sit before every other variable of m: a product is then
            # a concatenation.
            concat = not m or m[0][0] > last_w
            for c, coeff in row.items():
                targets = shifts.get(c)
                if targets is None:
                    _, func, beta = source.unknowns[c]
                    targets = shifts[c] = []
                    for delta, dmono in deltas[: comb(q + min(cut, target.order - sum(beta)), q)]:
                        alpha = tuple(b + d for b, d in zip(beta, delta))
                        k = factor(alpha, beta)
                        k = None if k == 1 else GaussScalar(k)
                        col = target.col[(COEF, func, alpha)]
                        targets.append((dmono, sum(delta), col, k))
                for dmono, dd, col, k in targets:
                    if dd > room:
                        break
                    if dd > limit:
                        continue
                    key = dmono + m if concat else mono_mul(dmono, m)
                    v = coeff if k is None else coeff * k
                    out_row = spread.get(key)
                    if out_row is None:
                        spread[key] = {col: v}
                        continue
                    acc = out_row.get(col)
                    if acc is not None:
                        v = acc + v
                        if v.is_zero():
                            del out_row[col]
                            if not out_row:
                                del spread[key]
                            continue
                    out_row[col] = v
    return out


def _inverse_factor(beta, gamma) -> Fraction:
    """The k of k w^(beta - gamma) P_{f,gamma} in A_{f,beta}."""
    delta = tuple(b - g for b, g in zip(beta, gamma))
    return Fraction((-1) ** sum(delta), alpha_factorial(gamma) * alpha_factorial(delta))


def reference_criterion_operator(sys_, quad) -> tuple[dict, dict]:
    """(operator, slot bounds) of ``prolong.lie_operator`` by the read-off
    it replaced: the criterion run on the degree-2 ansatz ``quad``, then
    inverted.  The unknown of (f, beta) carries
    P_{f,beta} = sum_{gamma <= beta} A_{f,gamma} d^gamma w^beta, so
    A_{f,beta} = sum_{gamma <= beta} (-w)^delta P_{f,gamma} / (gamma! delta!)
    with delta = beta - gamma, each term to the residual's bound."""
    residuals = lie_criterion_check(ansatz_field(quad), ext_system(sys_, quad))
    bounds = {slot: None if r.bound is None else r.bound - 1 for slot, r in residuals.items()}
    return reference_spread(quad, quad, group(quad, residuals), bounds, inf, _inverse_factor), bounds


def reference_determining(sys_, field):
    """(rows, provenance) of ``generate_determining`` by the path it replaced:
    the whole degree-N ansatz through the criterion, TruncationOrderError
    from those residuals' bounds, then ``sort_all_collect``, degree sums per
    row and the N - 2 cut."""
    residuals = lie_criterion_check(ansatz_field(field), ext_system(sys_, field))
    N = field.order
    for (mu, i, j) in sorted(residuals):
        bound = residuals[(mu, i, j)].bound
        if bound is not None and bound - 1 < N + 1:
            raise TruncationOrderError(
                f"residual for (mu={mu}, i={i}, j={j}) is only valid to degree "
                f"{bound - 1}; the degree-{N} ansatz needs {N + 1}"
            )
    kinds = [vid[0] for vid in ext_table(field).ids]
    rows, provenance = [], []
    for ((mu, i, j), mono), row in sort_all_collect(field, residuals).items():
        xu_deg = sum(e for p, e in mono if kinds[p] in (rings.X, rings.U))
        if xu_deg > N - 2:
            continue
        rows.append(row)
        provenance.append(RowProvenance(mu, i, j, mono, xu_deg))
    return rows, provenance


def reference_symmetry_algebra(sys_, order: int, point: dict | None = None) -> list[VectorField]:
    """The basis of ``symmetry_algebra`` by the solve it replaced: the
    nullspace of all determining rows, repeats included, in provenance
    order."""
    if point:
        sys_ = sys_.translated(point)
    field = UnknownCoefficientField(sys_.ctx, order)
    det = generate_determining(sys_, field)
    basis = [field.field_from_values(v) for v in field.solutions([row for _, row in det.ordered()])]
    if point:
        basis = [_shift_field(X, point) for X in basis]
    return basis


def reference_cr_automorphism_algebra(signature: Signature) -> CRAutomorphismAlgebra:
    """``cr_automorphism_algebra`` by the solve it replaced: the symbolic
    ansatz field X over the extended table, 2 Re X(rho) formed by one
    derivation and a conjugation that keeps the unknowns fixed, reduced
    modulo rho, then its rows sorted by graded-lex monomial
    (``sort_all_collect``) before the real split."""
    n = signature.n
    rings.check_size("CR ansatz", 2 * (n + 1) * comb(n + 3, 2))
    ansatz = cr_ansatz(n)
    base = ansatz.table
    rho = hyperquadric_rho(signature, ext_table(ansatz)).rho
    X = {v: ansatz_poly(ansatz, ("aR", c)) + ansatz_poly(ansatz, ("aI", c)).scale(I) for c, v in enumerate(ansatz.wvars)}
    xrho = rho.derivation(X)
    remainder = reduce_by_rho(xrho + reference_conjugate_poly(xrho), rho)
    rows = [part for row in sort_all_collect(ansatz, {0: remainder}).values() for part in _real_parts(row) if part]
    basis = []
    for vec in ansatz.solutions(rows):
        polys = ansatz.realize(vec)
        basis.append(HoloField(base, [polys[("aR", c)] + polys[("aI", c)].scale(I) for c in range(n + 1)]))
    return CRAutomorphismAlgebra(signature, basis, base)


def zero_initial_data(n: int, m: int) -> InitialData:
    """The initial data of the zero field."""
    return InitialData.from_flat([ZERO] * InitialData.dimension(n, m), n, m)


def second_order_forms(det) -> dict:
    """Layer 2 of ``det.propagator`` written in derivatives rather than
    Taylor coefficients: {(func, beta): {(func, alpha): coefficient}}, one
    linear form over the initial data per second derivative at the base
    point.  The gamma components map to themselves."""
    prop = det.propagator
    assert prop.layers[0].failure is None
    field = det.field
    keys = [field.unknowns[c][1:] for c, _ in prop.omega_columns]
    out = {}
    for c, cid in enumerate(field.unknowns):
        if field.layer_of(cid) == 2:
            fact = GaussScalar(alpha_factorial(cid[2]))
            out[cid[1:]] = {keys[k]: v * fact for k, v in prop.forms[c].items()}
    return out


def linear_residual(system, x) -> list:
    """matrix * x - rhs of a ``LinearSystemExact``, one entry per row."""
    out = []
    for row, b in zip(system.rows, system.rhs):
        acc = ZERO
        for c, v in row.items():
            acc = acc + v * x[c]
        out.append(acc - b)
    return out


def resubstitution_series_solve(equations, unknowns, order: int):
    """The implicit series solve that ``series.implicit_series_solve``
    replaced, kept as its reference: the same checks, errors and final
    back-substitution, but sweep b substitutes the whole series known so
    far, truncated at b, into every equation at bound b, and takes the
    result as the degree-b layer of the residual."""
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
        # The series is exact below degree b, so the residual at bound b is
        # its degree-b layer; taken as exact, it leaves current's bound as is.
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


def reference_substitute(f: Poly, bindings: dict) -> Poly:
    """The one-polynomial ``Poly.substitute`` that ``poly.substitute_all``
    replaced, kept as its reference: every term is multiplied by the powers
    of its replaced variables one at a time, from one power cache per call."""
    table = f.table
    polys: dict[int, Poly] = {}
    for vid, val in bindings.items():
        pos = table.index(vid)
        if isinstance(val, GaussScalar):
            val = Poly.const(table, val)
        elif isinstance(val, int):
            val = Poly.const(table, GaussScalar(val))
        if val.table is not table:
            raise ValueError("binding polynomial uses a different variable table")
        polys[pos] = val

    occurring = set()
    for m in f.terms:
        for p, _ in m:
            if p in polys:
                occurring.add(p)
    # A replaced variable shifted by a constant is refused whether or not it
    # occurs.
    if f.bound is not None and any(not b.constant_term().is_zero() for b in polys.values()):
        raise ValueError("cannot substitute a series with nonzero constant term into a truncated series")
    bound = f.bound
    for p in occurring:
        bound = _min_bound(bound, polys[p].bound)

    if not occurring:
        return f.truncate(bound)

    powers: dict[int, list[Poly]] = {}

    def power(pos: int, e: int) -> Poly:
        cache = powers.setdefault(pos, [Poly.const(table, ONE, bound), polys[pos].truncate(bound)])
        while len(cache) <= e:
            cache.append(cache[-1] * polys[pos])
        return cache[e]

    total: dict = {}
    for m, c in f.terms.items():
        kept = tuple(pe for pe in m if pe[0] not in occurring)
        factor = Poly(table, {kept: c}).truncate(bound)
        for p, e in m:
            if p in occurring:
                factor = factor * power(p, e)
        _add_into(total, factor.terms)
    return Poly(table, total, bound)


def reference_involutivity_check(sys_) -> InvolutivityVerdict:
    """The ``involutivity_check`` loop that forms both restricted derivatives
    of every compared pair afresh, kept as the reference for the memoized
    one."""
    failures = []
    n, m = sys_.ctx.n, sys_.ctx.m
    for k in range(1, m + 1):
        for i in range(1, n + 1):
            for l in range(i + 1, n + 1):
                for j in range(1, n + 1):
                    left = restricted_total_derivative(sys_, sys_.F(k, i, j), l)
                    right = restricted_total_derivative(sys_, sys_.F(k, l, j), i)
                    diff = left - right
                    if not diff.is_zero():
                        failures.append((k, i, j, l, diff))
    return InvolutivityVerdict(not failures, failures)


# -- the polynomial plumbing that ``poly`` now writes once --------------------------


def reference_convert(f: Poly, target) -> Poly:
    """The ``Poly.convert`` that ``poly.rekey`` replaced: every factor of
    every term is looked up in the target table afresh."""
    if target is f.table:
        return f
    out = {}
    for m, c in f.terms.items():
        nm = tuple(sorted((target.index(f.table.ids[p]), e) for p, e in m))
        out[nm] = c
    return Poly(target, out, f.bound)


def reference_translated(sys_, point: dict):
    """The ``PDESystem.translated`` that ``poly.translate`` replaced: one
    ``substitute`` call per entry."""
    shift = {}
    for vid, val in point.items():
        if vid[0] not in (rings.X, rings.U):
            raise ValueError("base point assigns only x and u variables")
        if not isinstance(val, GaussScalar):
            val = GaussScalar(val)
        if not val.is_zero():
            shift[vid] = Poly.var(sys_.ctx.table, vid) + Poly.const(sys_.ctx.table, val)
    if not shift:
        return sys_
    moved = {key: f.substitute(shift) for key, f in sys_.entries.items()}
    return PDESystem(sys_.ctx, moved)


def reference_shift_field(X: VectorField, point: dict) -> VectorField:
    """The ``determining._shift_field`` that ``poly.translate`` replaced:
    each variable v becomes v - point[v], one ``substitute`` call per
    component."""
    table = X.ctx.table
    bindings = {}
    for vid, val in point.items():
        if not isinstance(val, GaussScalar):
            val = GaussScalar(val)
        if val.is_zero():
            continue
        bindings[vid] = Poly.var(table, vid) + Poly.const(table, -val)
    if not bindings:
        return X
    return VectorField(
        X.ctx,
        tuple(f.substitute(bindings) for f in X.theta),
        tuple(f.substitute(bindings) for f in X.eta),
    )


def reference_conjugate_poly(f: Poly) -> Poly:
    """The ``segre.conjugate_poly`` that rebuilt each monomial itself."""
    table = f.table
    out = {}
    for mono, coeff in f.terms.items():
        pairs = []
        for p, e in mono:
            vid = table.ids[p]
            if vid[0] == COEF:
                pairs.append((p, e))
            else:
                pairs.append((table.index(rings.conjugate_id(vid)), e))
        out[tuple(sorted(pairs))] = coeff.conjugate()
    return Poly(table, out, f.bound)


def reference_to_xu_field(X, ctx) -> VectorField:
    """The ``segre.to_xu_field`` whose ``move`` rebuilt each monomial from a
    position map of z_j -> x_j and w -> u1."""
    n = len(X.coeffs) - 1
    mapping = {}
    for j in range(1, n + 1):
        mapping[X.table.index((rings.Z, j))] = ctx.table.index(rings.x_var(j))
    mapping[X.table.index((rings.W,))] = ctx.table.index(rings.u_var(1))

    def move(f: Poly) -> Poly:
        out = {}
        for mono, coeff in f.terms.items():
            pairs = tuple(sorted((mapping[p], e) for p, e in mono))
            out[pairs] = coeff
        return Poly(ctx.table, out, f.bound)

    theta = tuple(move(X.coeffs[j]) for j in range(n))
    eta = (move(X.coeffs[n]),)
    return VectorField(ctx, theta, eta)


def reference_monomial_str(mono, table) -> str:
    """The ``RowProvenance.monomial_str`` that ``poly.mono_str`` replaced."""
    if not mono:
        return "1"
    return "*".join(
        table.names[p] + (f"^{e}" if e > 1 else "")
        for p, e in mono
    )


def reference_label(field, cid) -> str:
    """The ``UnknownCoefficientField.label`` that printed the dense exponent
    tuple itself."""
    func, alpha = cid[1], cid[2]
    inner = "*".join(
        f"{field.ctx.table.names[field.ctx.table.index(v)]}" + (f"^{e}" if e > 1 else "")
        for v, e in zip(field.wvars, alpha)
        if e
    )
    return f"{func[0]}{func[1]}[{inner or '1'}]"


def reference_totally_real_check(fields) -> bool:
    """The ``segre.totally_real_check`` that ranked the real forms of A and
    of iA together against twice the rank of A."""
    rows, _ = coefficient_rows([X.coeffs for X in fields])

    def realify(row, times_i: bool):
        # Complex column c becomes the real columns 2c (real part) and 2c+1.
        out = {}
        for c, v in row.items():
            if times_i:
                v = v * I
            re, im = v.parts()
            if not re.is_zero():
                out[2 * c] = re
            if not im.is_zero():
                out[2 * c + 1] = im
        return out

    plain = [realify(row, False) for row in rows]
    with_i = [realify(row, True) for row in rows]
    r = sparse_rank(plain)
    return sparse_rank(plain + with_i) == 2 * r


def reference_insert(red, row):
    """The ``_Reducer.insert`` that cleared a new pivot column by scanning
    every pivot row, kept as the reference for the one that reads the
    ``holders`` map.  It keeps no ``holders`` of its own, so a reducer it
    fills must only ever be filled by it."""
    row = red.reduce(row)
    if not row:
        return None
    pc = min(row)
    inv = row[pc].inverse()
    row = {c: v * inv for c, v in row.items()}
    # Keep full Gauss-Jordan form: clear this column from earlier pivots.
    for prow in red.pivots.values():
        f = prow.pop(pc, None)
        if f is None:
            continue
        for cc, vv in row.items():
            if cc == pc:
                continue
            acc = prow.get(cc)
            nv = (acc - f * vv) if acc is not None else -(f * vv)
            if nv.is_zero():
                prow.pop(cc, None)
            else:
                prow[cc] = nv
    red.pivots[pc] = row
    return pc


def reference_solve_linear_exact(system):
    """The ``solve_linear_exact`` that probed every pivot row once per free
    column for a dense nullspace, on a reducer filled by
    ``reference_insert``; its vectors are handed back sparse, every nonzero
    value in column order."""
    ncols = system.ncols
    red = _Reducer()
    for idx, (row, b) in enumerate(zip(system.rows, system.rhs)):
        if reference_insert(red, {**row, ncols: -b} if not b.is_zero() else row) == ncols:
            return LinearSolveResult(consistent=False, inconsistent_row=idx, ncols=ncols)
    pivot_cols = sorted(red.pivots)
    free_cols = [c for c in range(ncols) if c not in red.pivots]
    particular = [ZERO] * ncols
    for c in pivot_cols:
        particular[c] = -red.pivots[c].get(ncols, ZERO)
    nullspace = []
    for f in free_cols:
        vec = [ZERO] * ncols
        vec[f] = ONE
        for c in pivot_cols:
            entry = red.pivots[c].get(f)
            if entry is not None:
                vec[c] = -entry
        nullspace.append(vec)
    return LinearSolveResult(
        consistent=True,
        particular=particular,
        null_vectors=[{c: v for c, v in enumerate(vec) if not v.is_zero()} for vec in nullspace],
        pivot_columns=pivot_cols,
        ncols=ncols,
    )


def reference_span_coordinates(basis_rows, targets, ncols: int):
    """The ``span_coordinates`` that looked up every tag column of a reduced
    target, on a reducer filled by ``reference_insert``."""
    red = _Reducer()
    for k, row in enumerate(basis_rows):
        reference_insert(red, {**row, ncols + k: ONE})
    for target in targets:
        row = red.reduce(target)
        if any(c < ncols for c in row):
            yield None
        else:
            yield [-row.get(ncols + k, ZERO) for k in range(len(basis_rows))]


def reference_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """The ``lie_alg.bracket`` that built each field's derivation vector once
    per component."""
    if X.ctx.table is not Y.ctx.table:
        raise ValueError("fields must share a context")
    theta = tuple(
        X.apply_to(Y.theta[j]) - Y.apply_to(X.theta[j]) for j in range(X.ctx.n)
    )
    eta = tuple(
        X.apply_to(Y.eta[mu]) - Y.apply_to(X.eta[mu]) for mu in range(X.ctx.m)
    )
    return VectorField(X.ctx, theta, eta)


def reference_flat_generators(n: int, m: int, ctx: JetContext | None = None) -> FieldBasis:
    """The ``lie_alg.flat_generators`` that wrote each of the eight
    generator families of the flat system's symmetry algebra out by hand:

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


def reference_coefficient_rows(families):
    """The ``poly.coefficient_rows`` that listed and sorted its frame:
    sparse coefficient vectors of polynomial tuples in one shared frame.

    Each family is a sequence of Polys over one table.  Columns are (slot,
    monomial) pairs covering exactly the monomials present, ordered by slot
    and then graded-lex.  Returns (rows, frame), one row per family.
    """
    if not families:
        return [], []
    keys = {(slot, mono) for fam in families for slot, f in enumerate(fam) for mono in f.terms}
    frame = sorted(keys, key=lambda sm: (sm[0], mono_sort_key(sm[1])))
    index = {key: c for c, key in enumerate(frame)}
    rows = [
        {index[(slot, mono)]: coeff for slot, f in enumerate(fam) for mono, coeff in f.terms.items()}
        for fam in families
    ]
    return rows, frame


def reference_sub(f: Poly, g: Poly) -> Poly:
    """The ``Poly.__sub__`` that built -g as a new polynomial and added it."""
    return f + (-g)


def random_perturbation(rng: Random, n: int, kind: str):
    """A seeded R of degree 3 or 4: none, rigid (x and s_1..s_n only), or
    rigid with u1 or with s_{n+1} in its first monomial."""
    if kind == "zero":
        return None
    table = defining_table(n)
    rigid = [x_var(j) for j in range(1, n + 1)] + [zeta_var(j) for j in range(1, n + 1)]
    forced = {"rigid": [], "u1": [u_var(1)], "s_n+1": [zeta_var(n + 1)]}[kind]
    R = Poly.zero(table)
    for t in range(rng.randint(1, 3)):
        head = forced if t == 0 else []
        term = Poly.const(table, GaussScalar(rng.choice([-2, -1, 1, 3]), rng.choice([0, 0, 1])))
        for v in head + [rng.choice(rigid + forced) for _ in range(rng.randint(3, 4) - len(head))]:
            term = term * Poly.var(table, v)
        R = R + term
    return R


def reference_segre_system(defn, order: int) -> PDESystem:
    """The ``segre.segre_system`` that typed the normal-form relation and its
    first total derivatives out term by term."""
    n = defn.n
    table = defn.table
    ectx = JetContext(table)
    eps = defn.signature.eps
    R = defn.R
    Ru = R.differentiate(u_var(1))

    equations = []
    unknowns = []
    first = []
    for k in range(1, n + 1):
        p_k = Poly.var(table, jet_var(1, (k,)))
        eq = (
            p_k
            + Poly.var(table, zeta_var(k)).scale(GaussScalar(eps[k - 1]))
            + R.differentiate(x_var(k))
            + Ru * p_k
        )
        first.append(eq)
        equations.append(eq)
        unknowns.append(zeta_var(k))
    relation = Poly.var(table, u_var(1)) + Poly.var(table, zeta_var(n + 1)) + R
    for j in range(1, n + 1):
        relation = relation + (
            Poly.var(table, x_var(j)) * Poly.var(table, zeta_var(j))
        ).scale(GaussScalar(eps[j - 1]))
    equations.append(relation)
    unknowns.append(zeta_var(n + 1))
    for k in range(1, n + 1):
        for j in range(k, n + 1):
            equations.append(total_derivative(ectx, first[k - 1], j))
            unknowns.append(jet_var(1, (k, j)))

    solution = implicit_series_solve(equations, unknowns, order)

    ctx = JetContext.create(n, 1)
    entries = {}
    for k in range(1, n + 1):
        for j in range(k, n + 1):
            entries[(1, k, j)] = solution[jet_var(1, (k, j))].convert(ctx.table)
    return PDESystem(ctx, entries)
