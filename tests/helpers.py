"""Shared random generators (seeded, deterministic) and reference helpers for
the property tests."""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import zip_longest
from random import Random

from hypothesis import settings

from jetsym import rings
from jetsym.determining import InitialData, RowProvenance, alpha_factorial, split_unknown
from jetsym.jets import InvolutivityVerdict, PDESystem, restricted_total_derivative
from jetsym.linalg import LinearSolveResult, _Reducer, sparse_rank
from jetsym.poly import Poly, _add_into, _min_bound, coefficient_rows, mono_sort_key
from jetsym.prolong import VectorField, lie_criterion_check
from jetsym.rings import COEF, jet_var
from jetsym.scalars import I, ONE, ZERO, GaussScalar
from jetsym.series import InconsistentBaseError, _invert_matrix


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


def first_difference(a, b):
    """The index of the first element where two sequences differ (a missing
    element counts), or None.  Asserting on it keeps a failing example cheap
    to report while hypothesis shrinks it."""
    return next((k for k, (x, y) in enumerate(zip_longest(a, b, fillvalue=object())) if x != y), None)


def sort_all_collect(ansatz, polys: dict) -> dict:
    """The row collector that ``LinearAnsatz.collect`` replaced: every row of
    every slot in one dict, then one sort of all keys by (slot, graded-lex
    key of the monomial)."""
    offset = len(ansatz.table)
    rows = {}
    for slot, f in polys.items():
        for mono, coeff in f.terms.items():
            ordinary, c = split_unknown(mono, offset)
            rows.setdefault((slot, ordinary), {})[c] = coeff
    return {key: rows[key] for key in sorted(rows, key=lambda k: (k[0], mono_sort_key(k[1])))}


def reference_determining(sys_, field):
    """(rows, provenance) of ``generate_determining`` by the path it replaced:
    ``sort_all_collect``, then degree sums per row and the N - 2 cut."""
    ext_sys = PDESystem(field.ext_ctx, {key: f.convert(field.ext_table) for key, f in sys_.entries.items()})
    residuals = lie_criterion_check(field.ansatz_field(), ext_sys)
    kinds = [vid[0] for vid in field.ext_table.ids]
    rows, provenance = [], []
    for ((mu, i, j), mono), row in sort_all_collect(field, residuals).items():
        xu_deg = sum(e for p, e in mono if kinds[p] in (rings.X, rings.U))
        if xu_deg > field.order - 2:
            continue
        jet_deg = sum(e for p, e in mono if kinds[p] == rings.JET)
        rows.append(row)
        provenance.append(RowProvenance(mu, i, j, mono, xu_deg, jet_deg))
    return rows, provenance


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
    bound = f.bound
    # A variable of positive weight shifted by a constant is refused too,
    # whether or not it occurs.
    if f.bound is not None and any(table.weights[p] > 0 and not b.constant_term().is_zero() for p, b in polys.items()):
        raise ValueError("cannot substitute a series with nonzero constant term into a truncated series")
    for p in occurring:
        b = polys[p]
        if f.bound is not None and not b.constant_term().is_zero():
            raise ValueError(
                "cannot substitute a series with nonzero constant term into a "
                "truncated series"
            )
        bound = _min_bound(bound, b.bound)

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
    n = X.n
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
        table.name_of(table.ids[p]) + (f"^{e}" if e > 1 else "")
        for p, e in mono
    )


def reference_label(field, cid) -> str:
    """The ``UnknownCoefficientField.label`` that printed the dense exponent
    tuple itself."""
    func, alpha = cid[1], cid[2]
    inner = "*".join(
        f"{field.ctx.table.name_of(v)}" + (f"^{e}" if e > 1 else "")
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
    column for the nullspace, on a reducer filled by ``reference_insert``."""
    ncols = system.ncols
    red = _Reducer()
    for idx, (row, b) in enumerate(zip(system.rows, system.rhs)):
        if reference_insert(red, {**row, ncols: -b} if not b.is_zero() else row) == ncols:
            return LinearSolveResult(consistent=False, inconsistent_row=idx)
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
        nullspace=nullspace,
        pivot_columns=pivot_cols,
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


def reference_sub(f: Poly, g: Poly) -> Poly:
    """The ``Poly.__sub__`` that built -g as a new polynomial and added it."""
    return f + (-g)
