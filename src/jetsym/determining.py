"""Determining equations for infinitesimal symmetries and their two solvers.

The symmetry coefficients theta_j, eta^mu are replaced by polynomials of
total degree <= N in (x, u) whose coefficients are formal unknowns.  The
tangency criterion then becomes a single polynomial identity; collecting
the coefficient of every monomial (in x, u, and the first-jet variables)
yields one homogeneous linear equation per monomial.  Rows whose (x, u)
degree exceeds N - 2 are discarded: they would also constrain Taylor
coefficients beyond the ansatz order, so for a degree-N truncation they are
incomplete.  The ansatz itself is a ``LinearAnsatz``, the same builder,
row collector and realizer that the CR automorphism solve uses.

Two independent algorithms are provided on top of the generated rows and
are tested against each other:

* ``symmetry_algebra``: the exact nullspace of all rows at once;
* ``taylor_from_initial_data``: the layer-by-layer recursion that rebuilds
  a symmetry from its initial data (values, first derivatives, and the
  distinguished second-derivative slice gamma), solving one small linear
  system per Taylor degree and checking every remaining row of the layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial

from . import rings
from .jets import JetContext, PDESystem
from .linalg import LinearSystemExact, _Reducer, solve_linear_exact
from .poly import Poly, mono_sort_key
from .prolong import VectorField, lie_criterion_check
from .rings import COEF, u_var, x_var
from .scalars import GaussScalar, ZERO, ONE


class DeterminingError(ValueError):
    pass


class TruncationOrderError(DeterminingError):
    """F is truncated too low to express the criterion at the ansatz order."""


class InconsistentLayerError(DeterminingError):
    def __init__(self, layer: int, detail: str = ""):
        self.layer = layer
        super().__init__(f"recursion inconsistent at Taylor layer {layer}" + (f": {detail}" if detail else ""))


class UnderdeterminedLayerError(DeterminingError):
    def __init__(self, layer: int):
        self.layer = layer
        super().__init__(f"Taylor layer {layer} is not determined (system not involutive?)")


class SingularSubsystemError(DeterminingError):
    pass


def monomials_up_to(nvars: int, degree: int):
    """Dense exponent tuples of total degree <= degree, graded then lex."""
    out = []
    for deg in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), deg):
            alpha = [0] * nvars
            for p in combo:
                alpha[p] += 1
            out.append(tuple(alpha))
    return out


def alpha_factorial(alpha) -> int:
    f = 1
    for e in alpha:
        f *= factorial(e)
    return f


THETA = "theta"
ETA = "eta"


class LinearAnsatz:
    """Polynomials in ``wvars`` whose coefficients are formal unknowns.

    ``unknowns`` lists (COEF, name, alpha) ids in column order, alpha a dense
    exponent tuple over wvars; the unknowns of one name make up the ansatz
    polynomial sum_alpha c_alpha * w^alpha of that name.  They are appended
    to the table as weight-zero variables, so every expression built from
    the ansatz stays ordinary polynomial arithmetic, linear in the unknowns.
    The extended table keeps the base positions, so one monomial in wvars
    serves both tables.
    """

    def __init__(self, table, wvars, unknowns):
        self.table = table
        self.wvars = list(wvars)
        self.unknowns = list(unknowns)
        self.col = {cid: c for c, cid in enumerate(self.unknowns)}
        self.ext_table = table.extend(self.unknowns, (0,) * len(self.unknowns))
        wpos = [table.index(v) for v in self.wvars]
        # name -> [(monomial in wvars, column)], in column order
        self._terms: dict = {}
        for c, (_, name, alpha) in enumerate(self.unknowns):
            mono = tuple(sorted((p, e) for p, e in zip(wpos, alpha) if e))
            self._terms.setdefault(name, []).append((mono, c))

    def poly(self, name) -> Poly:
        """The ansatz polynomial of ``name`` over the extended table."""
        offset = len(self.table)
        return Poly(self.ext_table, {mono + ((offset + c, 1),): ONE for mono, c in self._terms[name]})

    def collect(self, polys: dict) -> dict:
        """One linear equation per (slot, ordinary monomial) of polynomials
        that are linear in the unknowns.

        polys maps sortable slot keys to Polys over the extended table.
        Returns {(slot, monomial): {column: coefficient}} in slot, then
        graded-lex order.
        """
        offset = len(self.table)
        rows: dict[tuple, dict[int, GaussScalar]] = {}
        for slot, f in polys.items():
            for mono, coeff in f.terms.items():
                ordinary, c = split_unknown(mono, offset)
                # Each (monomial, column) pair is a distinct term of f, so
                # no entry is written twice.
                rows.setdefault((slot, ordinary), {})[c] = coeff
        return {key: rows[key] for key in sorted(rows, key=lambda k: (k[0], mono_sort_key(k[1])))}

    def realize(self, name, values) -> Poly:
        """The ansatz polynomial of ``name`` over the base table, with the
        unknown of column c replaced by values[c]."""
        terms = {mono: values[c] for mono, c in self._terms[name] if not values[c].is_zero()}
        return Poly(self.table, terms)


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


class UnknownCoefficientField(LinearAnsatz):
    """Degree-N ansatz for (theta, eta) with one formal unknown per Taylor
    coefficient; columns are ordered by Taylor degree, then function, then
    exponent."""

    def __init__(self, ctx: JetContext, order: int):
        if order < 2:
            raise ValueError("ansatz order must be at least 2")
        self.ctx = ctx
        self.order = order
        n, m = ctx.n, ctx.m
        wvars = [x_var(i) for i in range(1, n + 1)] + [u_var(mu) for mu in range(1, m + 1)]
        funcs = [(THETA, j) for j in range(1, n + 1)] + [(ETA, mu) for mu in range(1, m + 1)]
        unknowns = [(COEF, func, alpha) for alpha in monomials_up_to(n + m, order) for func in funcs]
        unknowns.sort(key=lambda cid: (sum(cid[2]), funcs.index(cid[1]), cid[2]))
        super().__init__(ctx.table, wvars, unknowns)
        self.ext_ctx = JetContext(self.ext_table)
        self.theta = tuple(self.poly((THETA, j)) for j in range(1, n + 1))
        self.eta = tuple(self.poly((ETA, mu)) for mu in range(1, m + 1))

    def ansatz_field(self) -> VectorField:
        return VectorField(self.ext_ctx, self.theta, self.eta)

    def unknown_count(self) -> int:
        return len(self.unknowns)

    def label(self, cid) -> str:
        func, alpha = cid[1], cid[2]
        inner = "*".join(
            f"{self.ctx.table.name_of(v)}" + (f"^{e}" if e > 1 else "")
            for v, e in zip(self.wvars, alpha)
            if e
        )
        return f"{func[0]}{func[1]}[{inner or '1'}]"

    def layer_of(self, cid) -> int:
        return sum(cid[2])

    def gamma_ids(self):
        """Coefficient unknowns carrying the gamma slice d2 theta_1 / dx_1 dw_l."""
        q = len(self.wvars)
        out = []
        for l in range(q):
            alpha = [0] * q
            alpha[0] += 1
            alpha[l] += 1
            out.append((COEF, (THETA, 1), tuple(alpha)))
        return out

    def field_from_values(self, values) -> VectorField:
        """Realize concrete coefficients as a vector field on the base context.

        values: mapping from unknown id to GaussScalar, or a flat sequence
        aligned with the unknown ordering.
        """
        if isinstance(values, dict):
            values = [values.get(cid, ZERO) for cid in self.unknowns]
        theta = tuple(self.realize((THETA, j), values) for j in range(1, self.ctx.n + 1))
        eta = tuple(self.realize((ETA, mu), values) for mu in range(1, self.ctx.m + 1))
        return VectorField(self.ctx, theta, eta)


@dataclass
class RowProvenance:
    mu: int
    i: int
    j: int
    mono: tuple  # ordinary (x, u, jet) monomial over the extended table
    xu_degree: int
    jet_degree: int

    def monomial_str(self, table) -> str:
        if not self.mono:
            return "1"
        return "*".join(
            table.name_of(table.ids[p]) + (f"^{e}" if e > 1 else "")
            for p, e in self.mono
        )


class DeterminingSystem:
    """Homogeneous linear system over the ansatz unknowns, with per-row
    provenance (which residual and monomial produced the row)."""

    def __init__(self, field: UnknownCoefficientField, rows, provenance):
        self.field = field
        self.rows = rows  # list of {column: GaussScalar}
        self.provenance: list[RowProvenance] = provenance

    @property
    def system(self) -> LinearSystemExact:
        return LinearSystemExact(self.rows, [ZERO] * len(self.rows), ncols=self.unknown_count)

    @property
    def unknown_count(self) -> int:
        return self.field.unknown_count()

    @property
    def row_count(self) -> int:
        return len(self.rows)


def generate_determining(sys: PDESystem, field: UnknownCoefficientField) -> DeterminingSystem:
    """Expand the symmetry criterion for the ansatz and collect one equation
    per complete monomial coefficient."""
    ext_table = field.ext_table
    ext_sys = PDESystem(field.ext_ctx, {key: f.convert(ext_table) for key, f in sys.entries.items()})
    residuals = lie_criterion_check(field.ansatz_field(), ext_sys)

    N = field.order
    for (mu, i, j) in sorted(residuals):
        r = residuals[(mu, i, j)]
        if r.bound is not None and r.bound < N + 1:
            raise TruncationOrderError(
                f"residual for (mu={mu}, i={i}, j={j}) is only valid to degree "
                f"{r.bound}; the degree-{N} ansatz needs {N + 1}"
            )

    kinds = [vid[0] for vid in ext_table.ids]
    rows = []
    provenance = []
    for ((mu, i, j), mono), row in field.collect(residuals).items():
        xu_deg = sum(e for p, e in mono if kinds[p] in (rings.X, rings.U))
        if xu_deg > N - 2:
            continue
        jet_deg = sum(e for p, e in mono if kinds[p] == rings.JET)
        rows.append(row)
        provenance.append(RowProvenance(mu, i, j, mono, xu_deg, jet_deg))
    return DeterminingSystem(field, rows, provenance)


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------


@dataclass
class InitialData:
    """The vector (alpha, beta, gamma, delta, epsilon) of a field at a point:
    first derivatives of theta and eta, the slice d2 theta_1 / dx_1 dw_l,
    and the values of eta and theta."""

    alpha: tuple  # n rows of length n+m
    beta: tuple   # m rows of length n+m
    gamma: tuple  # length n+m
    delta: tuple  # length m
    epsilon: tuple  # length n

    @staticmethod
    def dimension(n: int, m: int) -> int:
        return (n + m + 2) * (n + m)

    @staticmethod
    def zero(n: int, m: int) -> "InitialData":
        q = n + m
        return InitialData(
            alpha=tuple(tuple(ZERO for _ in range(q)) for _ in range(n)),
            beta=tuple(tuple(ZERO for _ in range(q)) for _ in range(m)),
            gamma=tuple(ZERO for _ in range(q)),
            delta=tuple(ZERO for _ in range(m)),
            epsilon=tuple(ZERO for _ in range(n)),
        )

    @staticmethod
    def from_flat(values, n: int, m: int) -> "InitialData":
        values = [v if isinstance(v, GaussScalar) else GaussScalar(v) for v in values]
        q = n + m
        if len(values) != InitialData.dimension(n, m):
            raise ValueError(
                f"initial data must have length {InitialData.dimension(n, m)}, got {len(values)}"
            )
        pos = 0

        def take(k):
            nonlocal pos
            chunk = tuple(values[pos:pos + k])
            pos += k
            return chunk

        alpha = tuple(take(q) for _ in range(n))
        beta = tuple(take(q) for _ in range(m))
        gamma = take(q)
        delta = take(m)
        epsilon = take(n)
        return InitialData(alpha, beta, gamma, delta, epsilon)

    def flat(self) -> list[GaussScalar]:
        out = []
        for row in self.alpha:
            out.extend(row)
        for row in self.beta:
            out.extend(row)
        out.extend(self.gamma)
        out.extend(self.delta)
        out.extend(self.epsilon)
        return out

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.flat())


def omega_basis(n: int, m: int) -> list[InitialData]:
    """Standard basis of the initial-data space."""
    dim = InitialData.dimension(n, m)
    out = []
    for k in range(dim):
        vec = [ZERO] * dim
        vec[k] = ONE
        out.append(InitialData.from_flat(vec, n, m))
    return out


def initial_data_of(X: VectorField, point: dict | None = None) -> InitialData:
    """Read off (alpha, beta, gamma, delta, epsilon) of a field at a point."""
    ctx = X.ctx
    n, m = ctx.n, ctx.m
    point = point or {}
    wvars = [x_var(i) for i in range(1, n + 1)] + [u_var(mu) for mu in range(1, m + 1)]

    def deriv_at(f: Poly, *vids) -> GaussScalar:
        for v in vids:
            f = f.differentiate(v)
        return f.evaluate(point)

    alpha = tuple(
        tuple(deriv_at(X.theta[j], w) for w in wvars) for j in range(n)
    )
    beta = tuple(
        tuple(deriv_at(X.eta[k], w) for w in wvars) for k in range(m)
    )
    gamma = tuple(deriv_at(X.theta[0], x_var(1), w) for w in wvars)
    delta = tuple(X.eta[k].evaluate(point) for k in range(m))
    epsilon = tuple(X.theta[j].evaluate(point) for j in range(n))
    return InitialData(alpha, beta, gamma, delta, epsilon)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def solve_second_order(det: DeterminingSystem) -> dict:
    """Express every second derivative of theta_j, eta^mu at the base point
    as an exact affine combination of the gamma components and lower-order
    data.

    Returns {(func, beta): linear form} where beta is a second-derivative
    exponent tuple over (x, u) and the linear form maps derivative keys
    (func, alpha), |alpha| <= 2, to GaussScalar coefficients.  The square
    subsystem is chosen deterministically: rows in provenance order are
    kept whenever they increase the rank on the non-gamma second-derivative
    columns.
    """
    field = det.field
    gamma = set(field.gamma_ids())
    layer2 = [cid for cid in field.unknowns if field.layer_of(cid) == 2]
    vprime = [cid for cid in layer2 if cid not in gamma]
    params = [cid for cid in field.unknowns if field.layer_of(cid) <= 1] + sorted(
        gamma, key=field.col.get
    )
    # The k second-derivative columns come first and the parameters after
    # them, so the reduced square subsystem reads x_c + sum_p a_cp * param_p.
    k = len(vprime)
    col = {cid: c for c, cid in enumerate(vprime + params)}

    reducer = _Reducer()
    for row, prov in zip(det.rows, det.provenance):
        if prov.xu_degree != 0:
            continue
        full = {}
        for c, v in row.items():
            cid = field.unknowns[c]
            if cid not in col:
                raise SingularSubsystemError(
                    f"row {prov} involves an unexpected unknown {field.label(cid)}"
                )
            full[col[cid]] = v
        reduced, _ = reducer.reduce(full, ZERO)
        if reduced and min(reduced) < k:
            reducer.insert(reduced, ZERO)
            if len(reducer.pivots) == k:
                break
    if len(reducer.pivots) != k:
        raise SingularSubsystemError(
            "no invertible square subsystem for the second-order layer "
            "(system not involutive or malformed)"
        )

    # Convert coefficient-space forms into derivative-space forms.
    def deriv_key(cid):
        return (cid[1], cid[2])

    out = {}
    for c, cid in enumerate(vprime):
        fact = GaussScalar(alpha_factorial(cid[2]))
        form = {}
        for p, v in reducer.pivots[c][0].items():
            if p < k:
                continue
            pid = params[p - k]
            form[deriv_key(pid)] = -v * fact / GaussScalar(alpha_factorial(pid[2]))
        out[deriv_key(cid)] = form
    for cid in gamma:
        out[deriv_key(cid)] = {deriv_key(cid): ONE}
    return out


def _known_from_omega(field: UnknownCoefficientField, omega: InitialData) -> dict:
    n, m = field.ctx.n, field.ctx.m
    q = n + m
    known: dict[tuple, GaussScalar] = {}
    zero_alpha = (0,) * q
    for j in range(n):
        known[(COEF, (THETA, j + 1), zero_alpha)] = omega.epsilon[j]
    for k in range(m):
        known[(COEF, (ETA, k + 1), zero_alpha)] = omega.delta[k]
    for l in range(q):
        e_l = tuple(1 if t == l else 0 for t in range(q))
        for j in range(n):
            known[(COEF, (THETA, j + 1), e_l)] = omega.alpha[j][l]
        for k in range(m):
            known[(COEF, (ETA, k + 1), e_l)] = omega.beta[k][l]
    for l in range(q):
        alpha = [0] * q
        alpha[0] += 1
        alpha[l] += 1
        fact = GaussScalar(alpha_factorial(alpha))
        known[(COEF, (THETA, 1), tuple(alpha))] = omega.gamma[l] / fact
    return known


def taylor_from_initial_data(
    sys: PDESystem,
    omega: InitialData,
    order: int = 3,
    point: dict | None = None,
    det: DeterminingSystem | None = None,
) -> VectorField:
    """Rebuild the degree-``order`` Taylor truncation of the symmetry with
    the given initial data, one layer at a time.

    Degrees 0 and 1 and the gamma slice come straight from omega; every
    higher layer is solved exactly from the determining rows whose (x, u)
    degree matches, and all remaining rows of the layer are verified, so an
    inconsistency (non-involutive system, inadmissible data) is reported
    with its layer.
    """
    if det is not None and point:
        raise ValueError("pass either a precomputed determining system or a point, not both")
    if det is not None and det.field.order != order:
        raise ValueError("precomputed determining system was generated at a different order")
    if point:
        sys = sys.translated(point)
    field = det.field if det is not None else UnknownCoefficientField(sys.ctx, order)
    if det is None:
        det = generate_determining(sys, field)
    known = _known_from_omega(field, omega)

    by_degree: dict[int, list[int]] = {}
    for idx, prov in enumerate(det.provenance):
        by_degree.setdefault(prov.xu_degree, []).append(idx)

    for layer in range(2, order + 1):
        targets = [
            cid
            for cid in field.unknowns
            if field.layer_of(cid) == layer and cid not in known
        ]
        tidx = {cid: k for k, cid in enumerate(targets)}
        rows = []
        rhs = []
        prov_used = []
        for idx in by_degree.get(layer - 2, []):
            row = det.rows[idx]
            new_row = {}
            acc = ZERO
            for col, v in row.items():
                cid = field.unknowns[col]
                if cid in known:
                    acc = acc + v * known[cid]
                elif cid in tidx:
                    new_row[tidx[cid]] = v
                else:
                    raise InconsistentLayerError(
                        layer,
                        f"row touches unknown {field.label(cid)} outside the layer",
                    )
            rows.append(new_row)
            rhs.append(-acc)
            prov_used.append(det.provenance[idx])
        result = solve_linear_exact(LinearSystemExact(rows, rhs, ncols=len(targets)))
        if not result.consistent:
            prov = prov_used[result.inconsistent_row]
            raise InconsistentLayerError(
                layer,
                f"residual (mu={prov.mu}, i={prov.i}, j={prov.j}) at monomial "
                f"{prov.monomial_str(field.ext_table)}",
            )
        if result.nullspace:
            raise UnderdeterminedLayerError(layer)
        for cid, val in zip(targets, result.particular):
            known[cid] = val

    X = field.field_from_values(known)
    if point:
        X = _shift_field(X, point, back=True)
    return X


def _shift_field(X: VectorField, point: dict, back: bool) -> VectorField:
    table = X.ctx.table
    bindings = {}
    for vid, val in point.items():
        if not isinstance(val, GaussScalar):
            val = GaussScalar(val)
        if val.is_zero():
            continue
        shift = Poly.const(table, -val if back else val)
        bindings[vid] = Poly.var(table, vid) + shift
    if not bindings:
        return X
    return VectorField(
        X.ctx,
        tuple(f.substitute(bindings) for f in X.theta),
        tuple(f.substitute(bindings) for f in X.eta),
    )


@dataclass
class SymmetryAlgebra:
    basis: list[VectorField]
    determining: DeterminingSystem

    @property
    def dimension(self) -> int:
        return len(self.basis)


def symmetry_algebra(sys: PDESystem, order: int = 3, point: dict | None = None) -> SymmetryAlgebra:
    """Basis of degree-``order`` truncated infinitesimal symmetries via the
    exact nullspace of the full determining system."""
    if point:
        sys = sys.translated(point)
    field = UnknownCoefficientField(sys.ctx, order)
    det = generate_determining(sys, field)
    result = solve_linear_exact(det.system)
    if not result.consistent:
        raise DeterminingError("homogeneous determining system reported inconsistent")
    basis = []
    for vec in result.nullspace:
        X = field.field_from_values(vec)
        if point:
            X = _shift_field(X, point, back=True)
        basis.append(X)
    return SymmetryAlgebra(basis, det)
