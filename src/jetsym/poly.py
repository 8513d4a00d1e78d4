"""Sparse multivariate polynomials and truncated power series over GaussScalar.

A Poly maps monomials to nonzero coefficients.  Monomials are tuples of
(variable position, exponent) pairs, sorted by position, exponents > 0; the
empty tuple is the constant monomial.  An optional ``bound`` turns the same
representation into a truncated power series: terms whose weighted total
degree exceeds the bound are unknown and never stored.  ``bound=None``
means the polynomial is exact.

Truncation bookkeeping: sums and products keep the minimum bound of their
operands; a derivation sum_v a_v d/dv (``Poly.derivation``) has bound
min(bound - weight(v) over the vector's variables v, bounds of the a_v with
a nonzero partial), lower even if every partial vanishes; and substitution
into a truncated series requires the binding of each replaced variable that
occurs in it or has positive weight to vanish at the origin (otherwise
discarded high-degree terms could influence low degrees and no bound would
be valid).  A product under a bound groups
each operand's terms by weighted degree, in one pass over each, and
multiplies only the groups whose degrees sum to at most the bound, so no
term pair above it is formed.

Substitution has one path, ``substitute_all``, which replaces variables in a
list of polynomials at once; ``Poly.substitute`` is its one-polynomial case.
It groups each polynomial's terms by the powers of replaced variables they
carry and multiplies each group by those powers, each power formed once for
the whole list.

Three more jobs have one path each, so no other module walks monomial
tuples to do them: ``translate`` shifts polynomials between a base point
and the origin (one ``substitute_all`` call); ``rekey`` moves a polynomial
onto another table under a renaming of variables, with ``Poly.convert`` as
its identity case; and ``mono_str`` prints a monomial.
"""

from __future__ import annotations

from .rings import VarTable
from .scalars import GaussScalar, ONE, ZERO

Mono = tuple  # tuple[(position, exponent), ...] sorted by position


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        pa, ea = a[i]
        pb, eb = b[j]
        if pa < pb:
            out.append(a[i])
            i += 1
        elif pa > pb:
            out.append(b[j])
            j += 1
        else:
            out.append((pa, ea + eb))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_degree(mono: Mono) -> int:
    return sum(e for _, e in mono)


def mono_weighted_degree(mono: Mono, weights) -> int:
    d = 0
    for p, e in mono:
        d += e * weights[p]
    return d


def mono_sort_key(mono: Mono):
    """Graded-lex key: total degree first, earlier variables dominant.

    At equal degree the first differing pair decides: a smaller position is
    a variable the other monomial lacks there, and at one position the
    larger exponent comes first.  Neither monomial can be a strict prefix of
    the other, since both have the same degree.
    """
    return (mono_degree(mono), tuple((p, -e) for p, e in mono))


def _min_bound(*bounds):
    present = [b for b in bounds if b is not None]
    return min(present) if present else None


def _by_degree(terms: dict, weights, bound: int) -> dict:
    """Terms of weighted degree at most ``bound``, as lists keyed by degree."""
    buckets: dict[int, list] = {}
    for m, c in terms.items():
        # Inline, with no generator: this runs once per term of both
        # operands of every bounded product.
        d = 0
        for p, e in m:
            d += e * weights[p]
        if d <= bound:
            buckets.setdefault(d, []).append((m, c))
    return buckets


def _add_into(out: dict, terms: dict, negate: bool = False) -> None:
    """Add the terms into ``out`` in place, or subtract them when
    ``negate``, dropping sums that vanish.

    ``terms`` holds no zero coefficient (a Poly never stores one, and a
    product of nonzero Gaussian rationals is nonzero), so an empty ``out``
    takes them unchanged (or negated) and a new monomial needs no check.
    """
    if not out and not negate:
        out.update(terms)
        return
    for m, c in terms.items():
        acc = out.get(m)
        if acc is None:
            out[m] = -c if negate else c
        else:
            s = acc - c if negate else acc + c
            if s.is_zero():
                del out[m]
            else:
                out[m] = s


class Poly:
    __slots__ = ("table", "terms", "bound")

    def __init__(self, table: VarTable, terms: dict | None = None, bound: int | None = None):
        self.table = table
        self.terms: dict[Mono, GaussScalar] = terms if terms is not None else {}
        self.bound = bound

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: VarTable, bound: int | None = None) -> "Poly":
        return Poly(table, {}, bound)

    @staticmethod
    def const(table: VarTable, value: GaussScalar | int, bound: int | None = None) -> "Poly":
        if isinstance(value, int):
            value = GaussScalar(value)
        if value.is_zero():
            return Poly(table, {}, bound)
        return Poly(table, {(): value}, bound)

    @staticmethod
    def var(table: VarTable, vid, bound: int | None = None) -> "Poly":
        pos = table.index(vid)
        return Poly(table, {((pos, 1),): ONE}, bound)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not m for m in self.terms)

    def constant_term(self) -> GaussScalar:
        return self.terms.get((), ZERO)

    def as_scalar(self) -> GaussScalar:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.constant_term()

    def variables(self):
        seen = set()
        for m in self.terms:
            for p, _ in m:
                seen.add(p)
        return {self.table.ids[p] for p in seen}

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, False)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, True)

    def _combine(self, other: "Poly", negate: bool) -> "Poly":
        """self + other, or self - other when ``negate``: the terms of other
        are merged into a copy of self's."""
        bound = _min_bound(self.bound, other.bound)
        # An operand with a larger bound may hold terms the result cannot keep.
        if self.bound != bound:
            return self.truncate(bound)._combine(other, negate)
        if other.bound != bound:
            return self._combine(other.truncate(bound), negate)
        out = dict(self.terms)
        _add_into(out, other.terms, negate)
        return Poly(self.table, out, bound)

    def __neg__(self) -> "Poly":
        return Poly(self.table, {m: -c for m, c in self.terms.items()}, self.bound)

    def scale(self, s: GaussScalar) -> "Poly":
        if s.is_zero():
            return Poly(self.table, {}, self.bound)
        if s.is_one():
            return self
        return Poly(self.table, {m: c * s for m, c in self.terms.items()}, self.bound)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, GaussScalar):
            return self.scale(other)
        bound = _min_bound(self.bound, other.bound)
        out: dict[Mono, GaussScalar] = {}
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        if bound is None:
            blocks = [(small.items(), big.items())]
        else:
            # Weighted degrees add under multiplication, so only the degree
            # buckets whose sum stays within the bound can contribute.
            lo = _by_degree(small, self.table.weights, bound)
            hi = _by_degree(big, self.table.weights, bound)
            blocks = [(t1, t2) for d1, t1 in lo.items() for d2, t2 in hi.items() if d1 + d2 <= bound]
        for terms1, terms2 in blocks:
            for m1, c1 in terms1:
                # m2 -> m1*m2 is one-to-one, so one factor's products never
                # collide; a bare variable (such as a jet lift) needs no
                # scalar product.
                if c1 is ONE:
                    _add_into(out, {mono_mul(m1, m2): c2 for m2, c2 in terms2})
                else:
                    _add_into(out, {mono_mul(m1, m2): c1 * c2 for m2, c2 in terms2})
        return Poly(self.table, out, bound)

    def __rmul__(self, other) -> "Poly":
        if isinstance(other, GaussScalar):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative exponent")
        result = Poly.const(self.table, ONE, self.bound)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        """Equality of stored terms; truncation bounds are not compared."""
        if not isinstance(other, Poly):
            return NotImplemented
        return self.table is other.table and self.terms == other.terms

    def __hash__(self):
        raise TypeError("Poly is not hashable")

    # -- truncation ------------------------------------------------------------

    def truncate(self, bound: int | None) -> "Poly":
        new_bound = _min_bound(self.bound, bound)
        if new_bound is None or new_bound == self.bound:
            return Poly(self.table, dict(self.terms), new_bound)
        w = self.table.weights
        kept = {m: c for m, c in self.terms.items() if mono_weighted_degree(m, w) <= new_bound}
        return Poly(self.table, kept, new_bound)

    # -- calculus ----------------------------------------------------------------

    def differentiate(self, vid) -> "Poly":
        return self.derivation({vid: Poly.const(self.table, ONE)})

    def derivation(self, vector: dict) -> "Poly":
        """sum_v vector[v] * d(self)/dv, for a map from variable ids to Polys
        on this table.

        The exact zero maps to the exact zero at once, which is what the
        bound rule gives it.  Otherwise one pass over the terms collects
        every partial; each nonzero one is multiplied by its coefficient
        under the result bound (see the module docstring) and summed into
        one dict.
        """
        table = self.table
        if not self.terms and self.bound is None:
            return Poly(table)
        coeffs = {table.index(vid): a for vid, a in vector.items()}
        partials: dict[int, dict] = {}
        for m, c in self.terms.items():
            for k, (p, e) in enumerate(m):
                if p in coeffs:
                    if e == 1:
                        nm, nc = m[:k] + m[k + 1:], c
                    else:
                        nm, nc = m[:k] + ((p, e - 1),) + m[k + 1:], c * GaussScalar(e)
                    # m -> nm is one-to-one for a fixed p, so nothing collides.
                    partials.setdefault(p, {})[nm] = nc
        own = None if self.bound is None or not coeffs else self.bound - max(table.weights[p] for p in coeffs)
        bound = _min_bound(own, *(coeffs[p].bound for p in partials))
        out: dict[Mono, GaussScalar] = {}
        for p, d in partials.items():
            if not coeffs[p].is_zero():
                _add_into(out, (Poly(table, d, bound) * coeffs[p]).terms)
        return Poly(table, out, bound)

    def substitute(self, bindings: dict) -> "Poly":
        """Simultaneously replace variables by polynomials (same table); see
        ``substitute_all``."""
        return substitute_all([self], bindings)[0]

    def evaluate(self, point: dict) -> GaussScalar:
        """Evaluate at a point given as {variable id: GaussScalar}; variables
        without a value are taken to be zero."""
        table = self.table
        values: dict[int, GaussScalar] = {}
        for vid, val in point.items():
            values[table.index(vid)] = val if isinstance(val, GaussScalar) else GaussScalar(val)
        total = ZERO
        for m, c in self.terms.items():
            term = c
            for p, e in m:
                v = values.get(p)
                if v is None:
                    term = ZERO
                    break
                term = term * v ** e
                if term.is_zero():
                    break
            total = total + term
        return total

    def convert(self, target: VarTable) -> "Poly":
        """Re-key this polynomial against another table (matching by
        variable id); see ``rekey``."""
        if target is self.table:
            return self
        return rekey(self, target, lambda vid: vid)

    # -- emission ---------------------------------------------------------------

    def sorted_terms(self):
        """Terms in graded-lex order (degree ascending, earlier variables first)."""
        return sorted(self.terms.items(), key=lambda mc: mono_sort_key(mc[0]))

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"<Poly {poly_to_str(self)}>"


def substitute_all(polys, bindings: dict) -> list:
    """Simultaneously replace variables by polynomials in each of a list of
    polynomials over one table.

    Scalars are accepted as constant bindings.  If a polynomial is a
    truncated series, every replaced variable that occurs in it, and every
    replaced variable of positive weight, must be bound to a series with
    zero constant term: its unknown terms above the bound may hold any
    variable of positive weight, and a shift by a constant would move them
    down.  Each result's bound is the minimum of its polynomial's bound and
    the bounds of the bindings of the replaced variables that occur in it.

    Each polynomial's terms are grouped by their pattern (the powers of
    replaced variables they carry), and each group is multiplied by those
    powers one at a time.  The powers are cached by (variable, bound) for
    the whole list, so a power that several polynomials use is formed once.
    A product of powers of two variables is never formed on its own: the
    group's degree already cuts its terms, and a cached one would live
    through the whole call.
    """
    if not polys:
        return []
    table = polys[0].table
    values: dict[int, Poly] = {}
    for vid, val in bindings.items():
        pos = table.index(vid)
        if isinstance(val, GaussScalar):
            val = Poly.const(table, val)
        elif isinstance(val, int):
            val = Poly.const(table, GaussScalar(val))
        if val.table is not table:
            raise ValueError("binding polynomial uses a different variable table")
        values[pos] = val
    shifted = {p for p, val in values.items() if not val.constant_term().is_zero()}
    shifts_remainder = any(table.weights[p] > 0 for p in shifted)

    powers: dict[tuple, list] = {}  # (position, bound) -> [v, v^2, ..] truncated at bound

    def power(p: int, e: int, bound) -> Poly:
        chain = powers.setdefault((p, bound), [values[p].truncate(bound)])
        while len(chain) < e:
            chain.append(chain[-1] * values[p])
        return chain[e - 1]

    results = []
    for f in polys:
        if f.table is not table:
            raise ValueError("polynomials must share one variable table")
        groups: dict[Mono, dict] = {}
        for m, c in f.terms.items():
            pattern = tuple(pe for pe in m if pe[0] in values)
            # m -> kept is one-to-one within a pattern, so nothing collides.
            groups.setdefault(pattern, {})[tuple(pe for pe in m if pe[0] not in values)] = c
        occurring = {p for pattern in groups for p, _ in pattern}
        if f.bound is not None and (shifts_remainder or not shifted.isdisjoint(occurring)):
            raise ValueError(
                "cannot substitute a series with nonzero constant term into a "
                "truncated series"
            )
        bound = f.bound
        for p in occurring:
            bound = _min_bound(bound, values[p].bound)
        if not occurring:
            results.append(f.truncate(bound))
            continue
        total: dict[Mono, GaussScalar] = {}
        for pattern, kept in groups.items():
            # Truncated first: a group with no replaced variable is never
            # multiplied, and the bound may be lower than this polynomial's.
            part = Poly(table, kept).truncate(bound)
            for p, e in pattern:
                part = part * power(p, e, bound)
            _add_into(total, part.terms)
        results.append(Poly(table, total, bound))
    return results


def translate(polys, point: dict) -> list:
    """Each polynomial of a list over one table with every variable v
    replaced by v + point[v] (a scalar or int; zero coordinates are
    skipped), in one ``substitute_all`` call, so each power of a shifted
    variable is formed once for the whole list."""
    if not polys:
        return []
    table = polys[0].table
    bindings = {}
    for vid, val in point.items():
        if not isinstance(val, GaussScalar):
            val = GaussScalar(val)
        if not val.is_zero():
            bindings[vid] = Poly.var(table, vid) + Poly.const(table, val)
    return substitute_all(polys, bindings)


def rekey(f: Poly, target: VarTable, rename) -> Poly:
    """f over the table ``target``, each variable v of f becoming the
    variable ``rename(v)`` of target; coefficients and bound are kept.

    ``rename`` must be one-to-one on the variables of f.  Only the
    variables that occur in f are renamed and looked up, so f's table may
    hold variables that target lacks.
    """
    ids = f.table.ids
    occurring = {p for m in f.terms for p, _ in m}
    moved = {p: target.index(rename(ids[p])) for p in occurring}
    terms = {tuple(sorted([(moved[p], e) for p, e in m])): c for m, c in f.terms.items()}
    return Poly(target, terms, f.bound)


def mono_str(table: VarTable, mono: Mono) -> str:
    """A monomial as text, such as "x1^2*u1"; the constant monomial is "1"."""
    if not mono:
        return "1"
    names = table.names
    # A plain loop: this runs once per term of every printed polynomial.
    factors = []
    for p, e in mono:
        factors.append(names[p] if e == 1 else f"{names[p]}^{e}")
    return "*".join(factors)


def coefficient_rows(families):
    """Sparse coefficient vectors of polynomial tuples in one shared frame.

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


def poly_to_str(f: Poly) -> str:
    """Canonical text form; parses back to the same polynomial."""
    if f.is_zero():
        return "0"
    parts = []
    for mono, coeff in f.sorted_terms():
        if not mono:
            cs = str(coeff)
            piece = f"({cs})" if ("+" in cs[1:] or "-" in cs[1:]) else cs
        elif coeff.is_one():
            piece = mono_str(f.table, mono)
        elif (-coeff).is_one():
            piece = "-" + mono_str(f.table, mono)
        else:
            cs = str(coeff)
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            piece = cs + "*" + mono_str(f.table, mono)
        parts.append(piece)
    out = parts[0]
    for piece in parts[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out
