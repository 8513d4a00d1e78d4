"""S. Lie's method in one place: polynomials whose coefficients are formal
unknowns.

A ``LinearAnsatz`` builds, collects, solves and realizes: it builds
polynomials in some variables whose coefficients are unknowns, collects one
exact linear equation per monomial of an expression linear in them, solves
the homogeneous equations for a nullspace basis, and turns each solution
back into polynomials.  The determining equations and the CR automorphism
solve both go through it: ``LinearAnsatz.solutions`` is the one exact
nullspace call of the package.  Solutions are sparse {column: value}
vectors of nonzero values from the solver to the polynomials, so realizing
one reads only its nonzeros.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations_with_replacement
from math import factorial

from .linalg import LinearSystemExact, solve_linear_exact
from .poly import Poly
from .scalars import GaussScalar, ZERO, ONE


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


class LinearAnsatz:
    """Polynomials in ``wvars`` whose coefficients are formal unknowns.

    ``unknowns`` lists (COEF, name, alpha) ids in column order, alpha a dense
    exponent tuple over wvars; the unknowns of one name make up the ansatz
    polynomial sum_alpha c_alpha * w^alpha of that name.  They are appended
    to the table as weight-zero variables, so every expression built from
    the ansatz stays ordinary polynomial arithmetic, linear in the unknowns.
    The extended table keeps the base positions, so one monomial in wvars
    serves both tables; it is built on first use.
    """

    def __init__(self, table, wvars, unknowns):
        self.table = table
        self.wvars = list(wvars)
        self.unknowns = list(unknowns)
        self.col = {cid: c for c, cid in enumerate(self.unknowns)}
        self.wpos = [table.index(v) for v in self.wvars]
        # column -> (name, monomial in wvars); the names in column order
        self._terms = [(name, self.monomial(alpha)) for _, name, alpha in self.unknowns]
        self._names = list(dict.fromkeys(name for name, _ in self._terms))

    @cached_property
    def ext_table(self):
        return self.table.extend(self.unknowns, (0,) * len(self.unknowns))

    def monomial(self, alpha) -> tuple:
        """The monomial w^alpha of a dense exponent tuple over wvars."""
        return tuple(sorted((p, e) for p, e in zip(self.wpos, alpha) if e))

    def poly(self, name) -> Poly:
        """The ansatz polynomial of ``name`` over the extended table."""
        offset = len(self.table)
        terms = {mono + ((offset + c, 1),): ONE for c, (nm, mono) in enumerate(self._terms) if nm == name}
        return Poly(self.ext_table, terms)

    def group(self, polys: dict) -> dict:
        """One linear equation per (slot, ordinary monomial) of polys, a map
        from slot keys to Polys over the extended table that are linear in
        the unknowns: {slot: {ordinary monomial: {column: coefficient}}}, in
        the order the terms come."""
        offset = len(self.table)
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

    def solutions(self, rows) -> list[dict[int, GaussScalar]]:
        """A nullspace basis of the homogeneous ``rows`` ({column: coefficient}
        each): one sparse vector {column: value} of nonzero values per free
        column, in order."""
        system = LinearSystemExact(rows, [ZERO] * len(rows), ncols=len(self.unknowns))
        return solve_linear_exact(system).null_vectors

    def realize(self, vec) -> dict[object, Poly]:
        """{name: the ansatz polynomial of name over the base table, with the
        unknown of column c replaced by vec[c]} for every name; vec is a
        sparse {column: value} vector of nonzero values, and only its entries
        are read.  Terms come in the order of vec."""
        terms = {name: {} for name in self._names}
        for c, v in vec.items():
            name, mono = self._terms[c]
            terms[name][mono] = v
        return {name: Poly(self.table, t) for name, t in terms.items()}


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
