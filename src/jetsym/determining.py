"""Determining equations for infinitesimal symmetries and their two solvers.

The symmetry coefficients theta_j, eta^mu are replaced by polynomials of
total degree <= N in (x, u) whose coefficients are formal unknowns.  The
tangency criterion then becomes a single polynomial identity; collecting
the coefficient of every monomial (in x, u, and the first-jet variables)
yields one homogeneous linear equation per monomial.  The criterion is a
linear second-order operator in (theta, eta) whose coefficients depend on
the system only (Olver 1986, section 2.4): ``prolong.lie_operator`` writes
them in closed form from F and its first partials, and each equation of
the degree-N ansatz is written straight from them.  The ansatz is never
built as a symbolic field.  Terms of (x, u) degree above N - 2 are never
formed: their rows would also constrain Taylor coefficients beyond the
ansatz order, so for a degree-N truncation they are incomplete.  The ansatz
is an ``ansatz.LinearAnsatz``, as for the CR automorphism solve; its
solutions reach the fields as sparse vectors of their nonzero values.

The systems are overdetermined, and most rows repeat.  A block of the
operator is the rows of one slot whose monomials share a jet part, and
many blocks are equal; ``generate_determining`` spreads each distinct
block once (``_blocks``, then ``_spread``).  A ``DeterminingSystem`` keeps
``_blocks``' indexing: the layout {slot: {jet part: k}} and the spread
rows {k: rows} of each distinct block.  ``DeterminingSystem.ordered``
writes the rows of the system out, each a block's row at its monomial
times the jet part, and is the package's one row sorter: it yields each
row with its provenance in residual, then graded-lex order, and only the
readers that need that order call it (the ``determining`` command and the
propagator, once each).

Both solvers below hand the reducer each distinct row once
(``_distinct``); the reducer keeps full Gauss-Jordan form, and the reduced
row echelon form of a row space is unique, so leaving out the repeats
changes no result, and the nullspace does not depend on the rows' order
either.  Two independent algorithms are provided on top of the generated
rows and are tested against each other:

* ``symmetry_algebra``: the exact nullspace of the rows of every distinct
  block at once, with the full system never written out;
* ``taylor_from_initial_data``: the layer-by-layer recursion that rebuilds
  a symmetry from its initial data omega (values, first derivatives, and
  the distinguished second-derivative slice gamma).  The recursion is
  linear in omega, so a ``TaylorPropagator``, built once per determining
  system on first use of ``DeterminingSystem.propagator``, reduces each
  Taylor layer a single time with omega kept symbolic: every unknown
  becomes a linear form in omega, and every row of a layer that its
  targets do not absorb becomes a compatibility condition C.omega = 0.
  One call checks those conditions and evaluates the forms.  The
  propagator reads ``det.ordered()`` once; a later change to the rows is
  not seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, perm, prod

from . import rings
from .ansatz import LinearAnsatz, alpha_factorial, monomials_up_to
from .jets import JetContext, PDESystem
from .linalg import _Reducer
from .poly import mono_degree, mono_mul, mono_sort_key, mono_str, translate
from .prolong import VectorField, lie_operator
from .rings import COEF, check_size
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


THETA = "theta"
ETA = "eta"


class UnknownCoefficientField(LinearAnsatz):
    """Degree-N ansatz for (theta, eta) with one formal unknown per Taylor
    coefficient; columns are ordered by Taylor degree, then function, then
    exponent."""

    def __init__(self, ctx: JetContext, order: int):
        if order < 2:
            raise ValueError("ansatz order must be at least 2")
        n, m = ctx.n, ctx.m
        check_size("symmetry ansatz", (n + m) * comb(n + m + order, order))
        self.ctx = ctx
        self.order = order
        funcs = self.funcs = [(THETA, j) for j in range(1, n + 1)] + [(ETA, mu) for mu in range(1, m + 1)]
        unknowns = [(COEF, func, alpha) for alpha in monomials_up_to(n + m, order) for func in funcs]
        unknowns.sort(key=lambda cid: (sum(cid[2]), funcs.index(cid[1]), cid[2]))
        super().__init__(ctx.table, ctx.coords, unknowns)

    def column(self, f: int, alpha) -> int:
        """The column of the unknown (f, alpha), f indexing theta_1 ..
        theta_n, eta^1 .. eta^m."""
        return self.col[(COEF, self.funcs[f], alpha)]

    def label(self, cid) -> str:
        func, alpha = cid[1], cid[2]
        return f"{func[0]}{func[1]}[{mono_str(self.table, self.monomial(alpha))}]"

    def layer_of(self, cid) -> int:
        return sum(cid[2])

    def field_from_values(self, values) -> VectorField:
        """Realize concrete coefficients as a vector field on the base context.

        values: a sparse {column: value} vector of the nonzero coefficients;
        only its entries are read (``realize``).
        """
        polys = self.realize(values)
        return VectorField.on(self.table, self.wvars, [polys[f] for f in self.funcs], self.ctx)


@dataclass
class RowProvenance:
    mu: int
    i: int
    j: int
    mono: tuple  # ordinary (x, u, jet) monomial
    xu_degree: int


class DeterminingSystem:
    """Homogeneous linear system over the ansatz unknowns, held as
    ``_blocks`` indexes it: ``layout`` is {slot (mu, i, j): {jet part: k}},
    and ``blocks`` is {k: rows}, the rows {monomial: {column: coefficient}}
    that distinct block k spreads to.  The rows of a slot are those of its
    blocks, each at its monomial times the jet part.  A block's monomials
    hold only x and u, and the jet part is a monomial in the other
    variables.  Every slot that lists a block shares its rows, so treat
    every row as read-only.
    """

    def __init__(self, field: UnknownCoefficientField, layout: dict, blocks: dict):
        self.field = field
        self.layout = layout
        self.blocks = blocks

    def block_rows(self):
        """(monomial, row) of every row of every distinct block once."""
        for rows in self.blocks.values():
            yield from rows.items()

    def ordered(self):
        """(RowProvenance, row) of every row, in slot, then graded-lex order:
        the package's one row sorter, and the one place that multiplies a
        block's monomial by its jet part.  Only each slot's own monomials
        are sorted, and a monomial's key is built once, however many slots
        it occurs in."""
        last_w = max(self.field.wpos)
        keys: dict[tuple, tuple] = {}
        for slot in sorted(self.layout):
            by_mono = {}
            for jet, k in self.layout[slot].items():
                # With x and u before every variable of the jet part, the
                # product is a concatenation.
                concat = not jet or jet[0][0] > last_w
                for xu, row in self.blocks[k].items():
                    mono = xu + jet if concat else mono_mul(xu, jet)
                    by_mono[mono] = (xu, row)
                    if mono not in keys:
                        keys[mono] = mono_sort_key(mono)
            for mono in sorted(by_mono, key=keys.__getitem__):
                xu, row = by_mono[mono]
                yield RowProvenance(*slot, mono, sum(e for _, e in xu)), row

    @cached_property
    def propagator(self) -> "TaylorPropagator":
        """The Taylor layer recursion for symbolic initial data, built on
        first use from the rows as they are then; a later change to the
        rows is not seen by it."""
        return TaylorPropagator(self)

    @property
    def unknown_count(self) -> int:
        return len(self.field.unknowns)

    @property
    def row_count(self) -> int:
        return sum(len(self.blocks[k]) for keys in self.layout.values() for k in keys.values())


def _distinct(rows):
    """The (tag, row) pairs of ``rows`` whose row has not come before: each
    one-entry row once per column, any other row once per exact content.
    Every one-entry row on a column spans the same line, so the pairs left
    out change no row space, and so no reduced row echelon form."""
    seen = set()
    for tag, row in rows:
        key = next(iter(row)) if len(row) == 1 else frozenset(row.items())
        if key not in seen:
            seen.add(key)
            yield tag, row


def generate_determining(sys: PDESystem, field: UnknownCoefficientField) -> DeterminingSystem:
    """Collect one equation per complete monomial coefficient of the
    criterion on the ansatz: the unknown (f, alpha) carries
    sum_{beta <= alpha} A_{f,beta} d^beta w^alpha (``lie_operator``), and no
    term above the N - 2 row cut or the residual's bound is formed.  Each
    distinct block of the operator (``_blocks``) is spread once."""
    N = field.order
    if sys.ctx.table is not field.table:
        sys = PDESystem(field.ctx, sys.entries)
    # Columns sort by degree first, so the unknowns with |beta| <= 2 lead
    # every ansatz: the operator is written in the degree-N columns.
    operator, bounds = lie_operator(sys, field.column)
    for (mu, i, j) in sorted(bounds):
        bound = bounds[(mu, i, j)]
        if bound is not None and bound < N + 1:
            raise TruncationOrderError(
                f"residual for (mu={mu}, i={i}, j={j}) is only valid to degree "
                f"{bound}; the degree-{N} ansatz needs {N + 1}"
            )
    blocks, rooms, layout = _blocks(operator, bounds, field.table)
    return DeterminingSystem(field, layout, _spread(field, blocks, rooms, N - 2))


def _blocks(operator, bounds, table):
    """The operator's rows in blocks, each spread by ``_spread`` on its own.

    A block is the rows of one slot whose monomials share a jet part J (the
    factors outside x and u), keyed by their (x, u) part.  Its bound room is
    the slot's bound less the degree of J, None for no bound.  The
    rows of a block spread to those of the slot at the same J, and two
    blocks with equal rows and equal room spread to equal rows.  Returns
    ({k: block}, {k: room}, {slot: {J: k}}), one k per distinct block."""
    is_xu = [vid[0] in (rings.X, rings.U) for vid in table.ids]
    parts: dict = {}  # monomial -> (jet part, (x, u) part), for every slot
    # hash of (room, rows) -> the k of each distinct block with that hash:
    # one int per distinct block is kept, no copy of its rows.
    index: dict = {}
    blocks, rooms, layout = {}, {}, {}
    for slot, rows in operator.items():
        by_jet: dict = {}
        for mono, row in rows.items():
            split = parts.get(mono)
            if split is None:
                split = parts[mono] = (
                    tuple(f for f in mono if not is_xu[f[0]]),
                    tuple(f for f in mono if is_xu[f[0]]),
                )
            jet, xu = split
            by_jet.setdefault(jet, {})[xu] = row
        bound = bounds[slot]
        keys = layout[slot] = {}
        for jet, block in by_jet.items():
            room = None if bound is None else bound - mono_degree(jet)
            content = frozenset((mono, frozenset(row.items())) for mono, row in block.items())
            bucket = index.setdefault(hash((room, content)), [])
            k = next((k for k in bucket if rooms[k] == room and blocks[k] == block), None)
            if k is None:
                k = len(blocks)
                bucket.append(k)
                blocks[k], rooms[k] = block, room
            keys[jet] = k
    return blocks, rooms, layout


def _spread(field: UnknownCoefficientField, blocks, rooms, cut) -> dict:
    """The rows {k: {monomial: {column: coefficient}}} over the unknowns of
    ``field`` that the blocks {k: {monomial: {column: coefficient}}} of Lie's
    operator spread to, each monomial in x and u only: the term c m of
    unknown (f, beta) adds alpha!/delta! c w^delta m to unknown (f, alpha)
    for each alpha = beta + delta of the ansatz with |delta| <= cut.  A term
    is formed only if its degree is at most ``cut`` and at most the block's
    room (None for no bound)."""
    q = len(field.wpos)
    deltas = [(delta, field.monomial(delta)) for delta in monomials_up_to(q, min(cut, field.order))]
    # column of beta -> [(w^delta, |delta|, column of alpha, alpha!/delta!
    # or None for 1)], graded by |delta|
    shifts: dict[int, list] = {}
    out = {}
    for k, rows in blocks.items():
        room = rooms[k]
        top = cut if room is None else min(cut, room)
        spread = out[k] = {}
        for m, row in rows.items():
            spare = top - mono_degree(m)
            for c, coeff in row.items():
                targets = shifts.get(c)
                if targets is None:
                    _, func, beta = field.unknowns[c]
                    targets = shifts[c] = []
                    for delta, dmono in deltas[: comb(q + min(cut, field.order - sum(beta)), q)]:
                        alpha = tuple(b + d for b, d in zip(beta, delta))
                        factor = prod(perm(a, b) for a, b in zip(alpha, beta) if b)
                        factor = None if factor == 1 else GaussScalar(factor)
                        col = field.col[(COEF, func, alpha)]
                        targets.append((dmono, sum(delta), col, factor))
                for dmono, dd, col, factor in targets:
                    if dd > spare:
                        break
                    key = mono_mul(dmono, m)
                    v = coeff if factor is None else coeff * factor
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


def omega_ids(n: int, m: int) -> list[tuple]:
    """(function, alpha) of each initial-data coordinate, in
    ``InitialData.flat`` order: the coordinate is d^alpha of that function
    at the base point, alpha a dense exponent tuple over (x, u)."""
    q = n + m
    units = [tuple(int(t == l) for t in range(q)) for l in range(q)]
    zero = (0,) * q
    out = [((THETA, j), e) for j in range(1, n + 1) for e in units]
    out += [((ETA, k), e) for k in range(1, m + 1) for e in units]
    out += [((THETA, 1), tuple(a + b for a, b in zip(units[0], e))) for e in units]
    out += [((ETA, k), zero) for k in range(1, m + 1)]
    out += [((THETA, j), zero) for j in range(1, n + 1)]
    return out


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
    n, m = X.ctx.n, X.ctx.m
    point = point or {}
    funcs = [(THETA, j) for j in range(1, n + 1)] + [(ETA, k) for k in range(1, m + 1)]
    coeff_of = dict(zip(funcs, X.coeffs))
    values = []
    for func, alpha in omega_ids(n, m):
        f = coeff_of[func]
        for v, e in zip(X.coords, alpha):
            for _ in range(e):
                f = f.differentiate(v)
        values.append(f.evaluate(point))
    return InitialData.from_flat(values, n, m)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def _omega_columns(field: UnknownCoefficientField) -> list[tuple[int, GaussScalar]]:
    """(column, scale) of each initial-data coordinate omega_k, in
    ``InitialData.flat`` order: the unknown of that column is scale * omega_k.
    The scale is 1/alpha! for a gamma entry, a second derivative, and 1 for
    every first derivative and value."""
    return [
        (field.col[(COEF, func, alpha)], ONE / GaussScalar(alpha_factorial(alpha)))
        for func, alpha in omega_ids(field.ctx.n, field.ctx.m)
    ]


@dataclass
class _Layer:
    """One Taylor layer of a propagator: its compatibility forms
    (RowProvenance, {omega index: coefficient}) in provenance order, and the
    error to raise once they hold, if the layer cannot be solved."""

    layer: int
    checks: list
    failure: object  # a zero-argument DeterminingError factory, or None


class TaylorPropagator:
    """The layer recursion of ``taylor_from_initial_data``, solved once for
    symbolic initial data.

    Every unknown is carried as a sparse linear form {k: coefficient} over
    the flat initial-data vector omega (``InitialData.flat`` order).  Layer L
    (the rows of (x, u)-degree L - 2) is reduced once, with the L-th degree
    unknowns that omega does not fix as the leading columns and one column
    per omega coordinate after them, so each target becomes a linear form in
    omega.  A row that reduces to omega columns only is not inserted: it is a
    compatibility condition C.omega = 0 that the data must meet.  Building
    stops at the first layer that cannot be solved (a row touching a higher
    unknown, or a rank deficit); that layer records the error.
    """

    def __init__(self, det: DeterminingSystem):
        fld = self.field = det.field
        self.omega_columns = _omega_columns(fld)
        # column -> linear form over omega, None while unknown
        self.forms: list[dict | None] = [None] * len(fld.unknowns)
        for k, (c, scale) in enumerate(self.omega_columns):
            self.forms[c] = {k: scale}
        by_degree: dict[int, list] = {}
        for prov, row in det.ordered():
            by_degree.setdefault(prov.xu_degree, []).append((prov, row))
        self.layers: list[_Layer] = []
        for layer in range(2, fld.order + 1):
            step = _Layer(layer, [], None)
            self.layers.append(step)
            if not self._solve_layer(step, by_degree.get(layer - 2, [])):
                break

    def _solve_layer(self, step: _Layer, pairs) -> bool:
        """Reduce the layer's (provenance, row) pairs once; returns False if
        the layer fails."""
        fld, forms = self.field, self.forms
        targets = [
            c for c, cid in enumerate(fld.unknowns) if fld.layer_of(cid) == step.layer and forms[c] is None
        ]
        tcol = {c: t for t, c in enumerate(targets)}
        k0 = len(targets)  # omega coordinate k sits in column k0 + k
        red = _Reducer()
        # A repeated row reduces exactly as its first copy did.
        for prov, det_row in _distinct(pairs):
            row: dict[int, GaussScalar] = {}
            for c, v in det_row.items():
                if forms[c] is not None:
                    for k, f in forms[c].items():
                        acc = row.get(k0 + k)
                        row[k0 + k] = v * f if acc is None else acc + v * f
                elif c in tcol:
                    row[tcol[c]] = v
                else:
                    label = fld.label(fld.unknowns[c])
                    step.checks = []
                    step.failure = lambda: InconsistentLayerError(
                        step.layer, f"row touches unknown {label} outside the layer"
                    )
                    return False
            row = {c: v for c, v in row.items() if not v.is_zero()}
            reduced = red.reduce(row)
            if reduced and min(reduced) < k0:
                red.insert(reduced)
            elif reduced:
                step.checks.append((prov, {c - k0: v for c, v in reduced.items()}))
        if len(red.pivots) < k0:
            step.failure = lambda: UnderdeterminedLayerError(step.layer)
            return False
        # Full Gauss-Jordan form: pivot row t reads target_t + (omega part) = 0.
        for t, c in enumerate(targets):
            forms[c] = {p - k0: -v for p, v in red.pivots[t].items() if p >= k0}
        return True

    @cached_property
    def _by_omega(self) -> list[list]:
        """For each omega coordinate k, (column, coefficient) of every form
        that holds k, in column order."""
        by_omega = [[] for _ in self.omega_columns]
        for c, form in enumerate(self.forms):
            for k, f in form.items():
                by_omega[k].append((c, f))
        return by_omega

    def values(self, omega: InitialData) -> dict[int, GaussScalar]:
        """The nonzero values of the unknowns for the initial data omega, as
        a sparse vector {column: value} in column order; only the forms that
        hold a nonzero coordinate of omega are read.

        The compatibility conditions are checked layer by layer in
        provenance order; the first one omega violates raises
        InconsistentLayerError naming its residual and monomial.
        """
        flat = omega.flat()
        if len(flat) != len(self.omega_columns):
            raise ValueError(
                f"initial data must have length {len(self.omega_columns)}, got {len(flat)}"
            )
        nonzero = [(k, v) for k, v in enumerate(flat) if not v.is_zero()]

        def at(form) -> GaussScalar:
            acc = ZERO
            for k, v in nonzero:
                f = form.get(k)
                if f is not None:
                    acc = acc + f * v
            return acc

        for step in self.layers:
            for prov, form in step.checks:
                if not at(form).is_zero():
                    raise InconsistentLayerError(
                        step.layer,
                        f"residual (mu={prov.mu}, i={prov.i}, j={prov.j}) at monomial "
                        f"{mono_str(self.field.table, prov.mono)}",
                    )
            if step.failure is not None:
                raise step.failure()
        acc: dict[int, GaussScalar] = {}
        for k, v in nonzero:
            for c, f in self._by_omega[k]:
                a = acc.get(c)
                acc[c] = f * v if a is None else a + f * v
        return {c: acc[c] for c in sorted(acc) if not acc[c].is_zero()}


def taylor_from_initial_data(
    sys: PDESystem,
    omega: InitialData,
    order: int = 3,
    point: dict | None = None,
    det: DeterminingSystem | None = None,
) -> VectorField:
    """Rebuild the degree-``order`` Taylor truncation of the symmetry with
    the given initial data.

    Degrees 0 and 1 and the gamma slice come straight from omega; every
    higher layer is read off ``det.propagator``, which solves each layer
    once for all omega.  Every compatibility condition the determining rows
    put on omega is checked first, so an inconsistency (non-involutive
    system, inadmissible data) is reported with its layer.
    """
    if det is not None and point:
        raise ValueError("pass either a precomputed determining system or a point, not both")
    if det is not None and det.field.order != order:
        raise ValueError("precomputed determining system was generated at a different order")
    if point:
        sys = sys.translated(point)
    if det is None:
        det = generate_determining(sys, UnknownCoefficientField(sys.ctx, order))
    X = det.field.field_from_values(det.propagator.values(omega))
    if point:
        X = _shift_field(X, point)
    return X


def _shift_field(X: VectorField, point: dict) -> VectorField:
    """Move a field built at the origin back to the base point: each
    variable v becomes v - point[v]."""
    moved = translate(X.coeffs, {vid: -val for vid, val in point.items()})
    return VectorField.on(X.table, X.coords, moved, X.ctx)


@dataclass
class SymmetryAlgebra:
    basis: list[VectorField]
    determining: DeterminingSystem

    @property
    def dimension(self) -> int:
        return len(self.basis)


def symmetry_algebra(sys: PDESystem, order: int = 3, point: dict | None = None) -> SymmetryAlgebra:
    """Basis of degree-``order`` truncated infinitesimal symmetries via the
    exact nullspace of the full determining system.  Each distinct row of
    each distinct block is solved once: the reduced row echelon form, and
    so the nullspace, is the same for any order and any repeats.  The full
    system is written out only by ``SymmetryAlgebra.determining.ordered()``."""
    if point:
        sys = sys.translated(point)
    field = UnknownCoefficientField(sys.ctx, order)
    det = generate_determining(sys, field)
    rows = [row for _, row in _distinct(det.block_rows())]
    basis = [field.field_from_values(v) for v in field.solutions(rows)]
    if point:
        basis = [_shift_field(X, point) for X in basis]
    return SymmetryAlgebra(basis, det)
